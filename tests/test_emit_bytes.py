"""Byte checks of ``emit`` on complex values and numpy scalars.

No file in ``problems/`` holds a complex number, so the reference bytes of
``tests/test_cli.py`` never reach the ``{"re", "im"}`` encoding.  The
problems here do: a complex g against a vector step, the increment sums of
complex jumps, and an operator and a semivariation on a complex space.  A
hand-built report adds the numpy scalars (bools, integers, floats and
complex numbers of several widths, a 0-d array) that no task returns.

The structured bytes are stored compactly and re-indented the way ``emit``
indents them; ``json.loads`` and ``json.dumps`` round-trip every float,
-0.0 and Infinity included, so the comparison is byte for byte.
"""

import json

import numpy as np
import pytest

from stieltjes.cli import RunReport, emit, run_task
from test_cli import STEP, problem

G = {"domain": [0.0, 1.0], "breakpoints": [0.0, 1.0],
     "coefficients": [[{"re": 1.0, "im": 0.5}, {"re": -0.5, "im": 1.0}]]}
JUMPS = {"domain": [0.0, 1.0], "breakpoints": [0.0, 0.25, 0.5, 1.0],
         "coefficients": [[[{"re": 0.0, "im": 0.0}, 0.0]],
                          [[{"re": 1.0, "im": -0.5}, 0.25]],
                          [[{"re": 0.5, "im": 2.0}, {"re": 0.0, "im": 1.0}]]],
         "values": [[{"re": 0.0, "im": 0.0}, 0.0],
                    [{"re": 1.0, "im": -0.5}, 0.25],
                    [{"re": 0.5, "im": 2.0}, {"re": 0.0, "im": 1.0}],
                    [{"re": -1.0, "im": 0.75}, {"re": 0.0, "im": 1.0}]]}
SPACE = {"dimension": 2, "field": "complex",
         "seminorms": [{"kind": "weighted-one", "weights": [1.0, 2.0]},
                       {"kind": "weighted-sup", "weights": [0.5, 1.0]}]}


def hand_built():
    payload = {
        "flag": np.bool_(True), "count": np.int64(7), "small": np.int32(-3),
        "single": np.float32(0.1), "double": np.float64(1) / 3,
        "z": np.complex128(0.25 - 2j), "z64": np.complex64(1.5 + 0.1j),
        "zero_d": np.array(2.5 + 1j), "plain": complex(-0.0, 3.0),
        "pair": (np.int64(1), np.float64(-0.0)),
        "nested": {"rows": np.array([[1, 2], [3, 4]], dtype=np.int16),
                   "mixed": [np.bool_(False), None, "text"]}}
    traces = [{"label": "t", "columns": ["level", "value"],
               "rows": [[np.int64(0), np.float64(0.5)],
                        [1, np.float32(0.25)]]}]
    return RunReport(task="measure", payload=payload,
                     diagnostics={"bounds": np.array([np.inf, 1e-300])},
                     traces=traces)


REPORTS = {
    "integrate-gdx": lambda: run_task(problem(
        "integrate-gdx", {"g": G, "x": STEP},
        {"integrand": "g", "integrator": "x"})),
    "eset": lambda: run_task(problem("eset", {"x": JUMPS},
                                     {"function": "x"})),
    "represent-apply": lambda: run_task(problem(
        "represent-apply", {"x": JUMPS, "g": G},
        {"integrator": "x", "argument": "g"}, space=SPACE)),
    "semivariation": lambda: run_task(problem(
        "semivariation", {"x": JUMPS}, {"function": "x", "seminorm": 1},
        space=SPACE)),
    "hand-built": hand_built,
}

# (structured, compact; table) as emitted before the encoder was rewritten
EXPECTED = {
    "integrate-gdx": (
        '{"diagnostics":{"error_estimates":[0.0]},'
        '"payload":{"converged":true,"levels":2,"value":[{"im":1.0,'
        '"re":0.75},{"im":-2.0,"re":-1.5}]},"task":"integrate-gdx",'
        '"traces":[{"columns":["level","mesh","value_0_re","value_0_im",'
        '"value_1_re","value_1_im","estimate_0"],"label":"integral",'
        '"rows":[[0,0.125,0.75,1.0,-1.5,-2.0,0.0],[1,0.0625,0.75,1.0,-1.5,'
        '-2.0,0.0]]}]}',
        'level\tmesh\tvalue_0_re\tvalue_0_im\tvalue_1_re\tvalue_1_im\t'
        'estimate_0\n'
        '0\t0.125\t0.75\t1.0\t-1.5\t-2.0\t0.0\n'
        '1\t0.0625\t0.75\t1.0\t-1.5\t-2.0\t0.0\n'),
    "eset": (
        '{"diagnostics":{},"payload":{"count":8,"exact":true,'
        '"points":[[{"im":0.0,"re":-0.0},{"im":0.0,"re":0.0}],[{"im":-0.5,'
        '"re":1.0},{"im":0.0,"re":0.25}],[{"im":2.5,"re":-0.5},{"im":1.0,'
        '"re":-0.25}],[{"im":2.0,"re":0.5},{"im":1.0,"re":0.0}],[{"im":-1.25,'
        '"re":-1.5},{"im":0.0,"re":0.0}],[{"im":-1.75,"re":-0.5},{"im":0.0,'
        '"re":0.25}],[{"im":1.25,"re":-2.0},{"im":1.0,"re":-0.25}],'
        '[{"im":0.75,"re":-1.0},{"im":1.0,"re":0.0}]]},"task":"eset",'
        '"traces":[]}',
        'key\tvalue\ncount\t8\nexact\ttrue\npoints\t[[{"im":0.0,"re":-0.0},'
        '{"im":0.0,"re":0.0}],[{"im":-0.5,"re":1.0},{"im":0.0,"re":0.25}],'
        '[{"im":2.5,"re":-0.5},{"im":1.0,"re":-0.25}],[{"im":2.0,"re":0.5},'
        '{"im":1.0,"re":0.0}],[{"im":-1.25,"re":-1.5},{"im":0.0,"re":0.0}],'
        '[{"im":-1.75,"re":-0.5},{"im":0.0,"re":0.25}],[{"im":1.25,'
        '"re":-2.0},{"im":1.0,"re":-0.25}],[{"im":0.75,"re":-1.0},{"im":1.0,'
        '"re":0.0}]]\n'),
    "represent-apply": (
        '{"diagnostics":{"wcs_bounds":[4.611062569605223,'
        '1.2747548783981963]},"payload":{"value":[{"im":-1.1875,"re":-0.5},'
        '{"im":0.6875,"re":-0.96875}]},"task":"represent-apply","traces":[]}',
        'key\tvalue\nvalue\t[{"im":-1.1875,"re":-0.5},{"im":0.6875,'
        '"re":-0.96875}]\n'),
    "semivariation": (
        '{"diagnostics":{"exact":[false,true],"values":[8.143473477707298,'
        '2.8100530822614758]},"payload":{"converged":true,"exact":true,'
        '"levels":1,"lower_bound_only":false,"seminorm_index":1,'
        '"value":2.8100530822614758},"task":"semivariation",'
        '"traces":[{"columns":["level","mesh","value"],"label":"seminorm-0",'
        '"rows":[[0,0.5,8.143473477707298]]},{"columns":["level","mesh",'
        '"value"],"label":"seminorm-1","rows":[[0,0.5,2.8100530822614758]]}]}',
        'level\tmesh\tvalue\n0\t0.5\t8.143473477707298\n\n'
        'level\tmesh\tvalue\n0\t0.5\t2.8100530822614758\n'),
    "hand-built": (
        '{"diagnostics":{"bounds":[Infinity,1e-300]},"payload":{"count":7,'
        '"double":0.3333333333333333,"flag":true,"nested":{"mixed":[false,'
        'null,"text"],"rows":[[1,2],[3,4]]},"pair":[1,-0.0],'
        '"plain":{"im":3.0,"re":-0.0},"single":0.10000000149011612,'
        '"small":-3,"z":{"im":-2.0,"re":0.25},'
        '"z64":{"im":0.10000000149011612,"re":1.5},"zero_d":{"im":1.0,'
        '"re":2.5}},"task":"measure","traces":[{"columns":["level","value"],'
        '"label":"t","rows":[[0,0.5],[1,0.25]]}]}',
        'level\tvalue\n0\t0.5\n1\t0.25\n'),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_complex_and_numpy_values_keep_their_bytes(name):
    report = REPORTS[name]()
    compact, table = EXPECTED[name]
    structured = json.dumps(json.loads(compact), sort_keys=True, indent=2)
    assert emit(report, "structured") == (structured + "\n").encode()
    assert emit(report, "table") == table.encode()


def test_a_payload_table_keeps_its_bytes():
    report = hand_built()
    report.traces = []
    assert emit(report, "table") == (
        'key\tvalue\ncount\t7\ndouble\t0.3333333333333333\nflag\ttrue\n'
        'nested\t{"mixed":[false,null,"text"],"rows":[[1,2],[3,4]]}\n'
        'pair\t[1,-0.0]\nplain\t{"im":3.0,"re":-0.0}\n'
        'single\t0.10000000149011612\nsmall\t-3\nz\t{"im":-2.0,"re":0.25}\n'
        'z64\t{"im":0.10000000149011612,"re":1.5}\n'
        'zero_d\t{"im":1.0,"re":2.5}\n').encode()


@pytest.mark.parametrize("format", ["structured", "table"])
def test_an_unknown_object_is_refused(format):
    report = RunReport(task="measure", payload={"value": object()})
    with pytest.raises(TypeError):
        emit(report, format)
