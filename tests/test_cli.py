import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from stieltjes.cli import emit, load_problem, main, run_task
from stieltjes.errors import SchemaError
from stieltjes.functions import PiecewiseFunction
from stieltjes.semivariation import semivariation
from stieltjes.spaces import Seminorm

STEP = {
    "domain": [0.0, 1.0],
    "breakpoints": [0.0, 0.5, 1.0],
    "coefficients": [[[0.0, 0.0]], [[1.0, -2.0]]],
    "values": [[0.0, 0.0], [1.0, -2.0], [1.0, -2.0]],
}
RAMP = {
    "domain": [0.0, 1.0],
    "breakpoints": [0.0, 1.0],
    "coefficients": [[0.0, 1.0]],
}
ONE = {
    "domain": [0.0, 1.0],
    "breakpoints": [0.0, 1.0],
    "coefficients": [[1.0]],
}
PLANE = {
    "dimension": 2,
    "field": "real",
    "seminorms": [{"kind": "weighted-one", "weights": [1.0, 1.0]}],
}


REPO = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = REPO / "perfbench" / "reference"
GOLDEN = sorted(path for path in (REPO / "problems").glob("*.json")
                if (REFERENCE / f"{path.stem}.out").exists())
PROBLEMS = sorted((REPO / "problems").glob("*.json"))


def problem(task, functions, parameters, space=None):
    doc = {"task": task, "functions": functions, "parameters": parameters}
    if space is not None:
        doc["space"] = space
    return doc


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_integrate_constant_integrand():
    doc = problem("integrate-gdx", {"one": ONE, "x": STEP},
                  {"integrand": "one", "integrator": "x"})
    report = run_task(doc)
    np.testing.assert_allclose(report.payload["value"], [1.0, -2.0],
                               atol=1e-12)
    assert report.payload["converged"]
    assert report.traces[0]["label"] == "integral"


def test_run_semivariation_exact():
    doc = problem("semivariation", {"x": STEP}, {"function": "x"},
                  space=PLANE)
    report = run_task(doc)
    assert report.payload["value"] == 3.0
    assert report.payload["exact"]
    assert report.payload["seminorm_index"] == 0


def test_run_semivariation_max_seminorm(tmp_path):
    parts = [{"kind": "weighted-sup", "weights": [1.0, 1.0]},
             {"kind": "weighted-one", "weights": [1.0, 2.0]}]
    space = {"dimension": 2, "field": "real",
             "seminorms": [{"kind": "max", "parts": parts}]}
    doc = problem("semivariation", {"x": STEP}, {"function": "x"},
                  space=space)
    report = run_task(load_problem(write_problem(tmp_path, doc)))
    x = PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0, -2.0]], [0.0, 0.0])
    # the jump (1, -2): 2 under the sup, 1 + 4 under the weighted one
    reports = [semivariation(x, Seminorm.weighted_sup([1.0, 1.0])),
               semivariation(x, Seminorm.weighted_one([1.0, 2.0]))]
    assert report.payload["value"] == max(r.value for r in reports) == 5.0
    assert report.payload["exact"]


def test_run_perpartes_gap():
    doc = problem("perpartes", {"x": STEP, "g": RAMP},
                  {"integrand": "x", "integrator": "g"})
    report = run_task(doc)
    np.testing.assert_allclose(report.payload["x_dg"], [0.5, -1.0],
                               atol=1e-10)
    assert report.payload["max_gap"] < 1e-10
    labels = [tr["label"] for tr in report.traces]
    assert labels == ["x-dg", "g-dx"]


def test_structured_emission_round_trips():
    doc = problem("measure", {"x": STEP},
                  {"integrator": "x", "interval": [0.4, 0.6],
                   "cuts": [0.0, 0.5, 1.0]})
    data = emit(run_task(doc), "structured")
    parsed = json.loads(data.decode())
    again = (json.dumps(parsed, sort_keys=True, indent=2) + "\n").encode()
    assert again == data
    np.testing.assert_allclose(parsed["payload"]["value"], [1.0, -2.0])
    assert parsed["payload"]["additivity_gap"] == 0.0
    assert "wall_time" not in data.decode()


def test_table_rows_match_levels():
    doc = problem("integrate-xdg", {"x": STEP, "g": RAMP},
                  {"integrand": "x", "integrator": "g"})
    report = run_task(doc)
    block = emit(report, "table").decode().strip()
    lines = block.splitlines()
    assert lines[0].startswith("level\tmesh\t")
    assert len(lines) == 1 + report.payload["levels"]


def test_table_lists_the_payload_without_trace():
    # one row per payload key, in sorted order, each value as compact JSON
    doc = problem("eset", {"x": STEP}, {"function": "x"})
    data = emit(run_task(doc), "table").decode()
    assert data == ("key\tvalue\ncount\t2\nexact\ttrue\n"
                    "points\t[[0.0,0.0],[1.0,-2.0]]\n")


def test_run_task_deterministic_bytes(tmp_path):
    doc = problem("roundtrip", {"x": STEP},
                  {"integrator": "x", "probe_count": 10, "dual_count": 5,
                   "function_count": 5, "seed": 11})
    path = write_problem(tmp_path, doc)
    first = emit(run_task(load_problem(path)), "structured")
    second = emit(run_task(load_problem(path)), "structured")
    assert first == second


def test_main_deterministic_outputs(tmp_path):
    doc = problem("semivariation", {"x": STEP}, {"function": "x"},
                  space=PLANE)
    path = write_problem(tmp_path, doc)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["--input", path, "--output", out1]) == 0
    assert main(["--input", path, "--output", out2]) == 0
    with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
        assert fh1.read() == fh2.read()


def test_main_writes_stdout():
    doc = problem("wcs-check", {"x": STEP}, {"function": "x"}, space=PLANE)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from stieltjes.cli import main;"
         "import tempfile, os;"
         "fd, p = tempfile.mkstemp(suffix='.json');"
         "os.write(fd, sys.argv[1].encode()); os.close(fd);"
         "sys.exit(main(['--input', p]))",
         json.dumps(doc)],
        capture_output=True)
    assert proc.returncode == 0
    parsed = json.loads(proc.stdout.decode())
    assert parsed["payload"]["bounded"] is True
    np.testing.assert_allclose(parsed["diagnostics"]["bounds"], [3.0])


@pytest.mark.parametrize("name, needs_lp", [("roundtrip_mixed", False),
                                            ("image_check_step", True)])
def test_scipy_is_loaded_only_by_the_hull_lp(name, needs_lp):
    # a fresh interpreter, as each CLI run is: importing scipy costs more
    # than most problems take to run, and only hull_membership needs it;
    # jsonschema is never needed, the CLI interprets the schema itself
    path = REPO / "problems" / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from stieltjes import cli;"
         "code = cli.main(['--input', sys.argv[1]]);"
         "print(json.dumps([m for m in sys.modules"
         " if m.split('.')[0] in ('scipy', 'jsonschema')]), file=sys.stderr);"
         "sys.exit(code)",
         str(path)],
        capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (REFERENCE / f"{name}.out").read_bytes()
    modules = json.loads(proc.stderr.decode().splitlines()[-1])
    assert [m for m in modules if m.split(".")[0] == "jsonschema"] == []
    scipy_modules = [m for m in modules if m.split(".")[0] == "scipy"]
    if needs_lp:
        assert "scipy.optimize" in scipy_modules
    else:
        assert scipy_modules == []


def test_complex_scalars_accepted():
    steps = {
        "domain": [0.0, 1.0],
        "breakpoints": [0.0, 0.3, 0.7, 1.0],
        "coefficients": [[{"re": 0.0, "im": 0.0}],
                         [{"re": 1.0, "im": 0.0}],
                         [{"re": 1.0, "im": 1.0}]],
    }
    doc = problem("eset", {"x": steps}, {"function": "x"})
    report = run_task(doc)
    assert report.payload["count"] == 4
    parsed = json.loads(emit(report, "structured").decode())
    points = parsed["payload"]["points"]
    assert {"re": 1.0, "im": 1.0} in points


def test_schema_rejects_unknown_task(tmp_path):
    doc = problem("differentiate", {"x": STEP}, {"function": "x"})
    path = write_problem(tmp_path, doc)
    with pytest.raises(SchemaError) as info:
        load_problem(path)
    assert info.value.location == "task"


def test_exit_codes(tmp_path):
    bad_task = write_problem(tmp_path, problem("fly", {}, {}), "t1.json")
    assert main(["--input", bad_task]) == 2

    missing_param = write_problem(
        tmp_path, problem("measure", {"x": STEP}, {"integrator": "x"}),
        "t2.json")
    assert main(["--input", missing_param]) == 2

    unknown_ref = write_problem(
        tmp_path, problem("eset", {"x": STEP}, {"function": "y"}),
        "t3.json")
    assert main(["--input", unknown_ref]) == 2

    ragged = dict(STEP, coefficients=[[[0.0, 0.0]], [[1.0]]])
    bad_fn = write_problem(
        tmp_path, problem("eset", {"x": ragged}, {"function": "x"}),
        "t4.json")
    assert main(["--input", bad_fn]) == 2

    bad_index = write_problem(
        tmp_path, problem("semivariation", {"x": STEP},
                          {"function": "x", "seminorm": 5}, space=PLANE),
        "t5.json")
    assert main(["--input", bad_index]) == 2

    assert main(["--input", str(tmp_path / "missing.json")]) == 2


def edited_problem(tmp_path, name, keys, value):
    """Write ``problems/<name>.json`` with the node at ``keys`` set."""
    doc = json.loads((REPO / "problems" / f"{name}.json").read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return write_problem(tmp_path, doc, f"{value!r}.json")


@pytest.mark.parametrize("name, keys, value, location", [
    ("integrate_gdx_step", ["parameters", "tolerance"], float("nan"),
     "parameters.tolerance"),
    ("integrate_gdx_step", ["functions", "x", "breakpoints", 1],
     -float("inf"), "functions.x.breakpoints.1"),
    ("roundtrip_mixed", ["functions", "x", "coefficients", 1, 0, 0],
     float("inf"), "functions.x.coefficients.1.0.0"),
])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, name, keys,
                                         value, location):
    # json.loads reads NaN and Infinity, but they are not JSON numbers
    path = edited_problem(tmp_path, name, keys, value)
    assert "NaN" in pathlib.Path(path).read_text() \
        or "Infinity" in pathlib.Path(path).read_text()
    target = tmp_path / "report.json"
    assert main(["--input", path, "--output", str(target)]) == 2
    assert f"schema violation at {location}:" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("value", ["1e0", True])
def test_coefficients_must_be_numbers(tmp_path, capsys, value):
    # a string or a bool is no JSON number, even where float() reads one
    path = edited_problem(tmp_path, "integrate_gdx_step",
                          ["functions", "g", "coefficients", 0, 0], value)
    assert main(["--input", path]) == 2
    assert "schema violation at functions.g.coefficients.0.0:" \
        in capsys.readouterr().err


def schema_integers(schema, name=None):
    """Names of the properties that the schema types as integers."""
    if schema.get("type") == "integer":
        yield name
    for key, sub in schema.get("properties", {}).items():
        yield from schema_integers(sub, key)
    for sub in schema.get("$defs", {}).values():
        yield from schema_integers(sub)


# integer field -> (problem file, its path there, value)
INTEGER_CASES = {
    "dimension": ("semivariation_single_jump", ["space", "dimension"], 2),
    "max_levels": ("integrate_gdx_step", ["parameters", "max_levels"], 5),
    "seminorm": ("semivariation_single_jump", ["parameters", "seminorm"], 0),
    "phase_count": ("semivariation_single_jump",
                    ["parameters", "phase_count"], 8),
    "resolution": ("wcs_check_two_seminorms", ["parameters", "resolution"],
                   6),
    "sample_count": ("image_check_step", ["parameters", "sample_count"], 3),
    "seed": ("roundtrip_mixed", ["parameters", "seed"], 1),
    "probe_count": ("roundtrip_mixed", ["parameters", "probe_count"], 5),
    "dual_count": ("roundtrip_mixed", ["parameters", "dual_count"], 2),
    "function_count": ("roundtrip_mixed", ["parameters", "function_count"],
                       2),
}
SCHEMA_INTEGERS = sorted(set(schema_integers(json.loads(
    (REPO / "src" / "stieltjes" / "problem_schema.json").read_text()))))


@pytest.mark.parametrize("key", SCHEMA_INTEGERS)
def test_integral_floats_in_integer_fields(tmp_path, key):
    # the schema's integer type admits 5.0; the library must see 5
    name, keys, value = INTEGER_CASES[key]
    outputs = []
    for number in (value, float(value)):
        path = edited_problem(tmp_path, name, keys, number)
        target = tmp_path / "report.json"
        assert main(["--input", path, "--output", str(target)]) == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_exit_code_numeric_errors(tmp_path):
    jumpy_g = {
        "domain": [0.0, 1.0],
        "breakpoints": [0.0, 0.5, 1.0],
        "coefficients": [[0.0], [1.0]],
    }
    clash = write_problem(
        tmp_path, problem("integrate-gdx", {"g": jumpy_g, "x": STEP},
                          {"integrand": "g", "integrator": "x"}),
        "clash.json")
    assert main(["--input", clash]) == 3

    times = np.linspace(0.02, 0.98, 21)
    big = {
        "domain": [0.0, 1.0],
        "breakpoints": [0.0] + [float(t) for t in times] + [1.0],
        "coefficients": [[[float(k), 0.0]] for k in range(22)],
    }
    # sign enumeration, and so its jump cap, serves quadratic seminorms
    quadratic_plane = dict(PLANE, seminorms=[
        {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]]}])
    too_many = write_problem(
        tmp_path, problem("semivariation", {"x": big}, {"function": "x"},
                          space=quadratic_plane),
        "big.json")
    assert main(["--input", too_many]) == 3


def test_no_partial_output_on_error(tmp_path):
    jumpy_g = {
        "domain": [0.0, 1.0],
        "breakpoints": [0.0, 0.5, 1.0],
        "coefficients": [[0.0], [1.0]],
    }
    doc = problem("integrate-gdx", {"g": jumpy_g, "x": STEP},
                  {"integrand": "g", "integrator": "x"})
    path = write_problem(tmp_path, doc)
    target = tmp_path / "report.json"
    assert main(["--input", path, "--output", str(target)]) == 3
    assert not target.exists()


def test_an_unwritable_output_exits_with_2(tmp_path, capsys):
    # a directory that does not exist, and a directory in place of a file
    source = str(REPO / "problems" / "eset_two_jumps.json")
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        assert main(["--input", source, "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: "), err
        assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_represent_apply_reports_bounds():
    doc = problem("represent-apply", {"x": STEP, "g": RAMP},
                  {"integrator": "x", "argument": "g"}, space=PLANE)
    report = run_task(doc)
    np.testing.assert_allclose(report.payload["value"], [0.5, -1.0],
                               atol=1e-10)
    np.testing.assert_allclose(report.diagnostics["wcs_bounds"], [3.0])


def test_image_check_task():
    doc = problem("image-check", {"x": STEP},
                  {"integrator": "x", "sample_count": 5, "seed": 2},
                  space=PLANE)
    report = run_task(doc)
    assert report.payload["ok"] is True
    assert report.payload["worst_distance"] <= 1e-9


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_problem_output_matches_reference_bytes(path):
    expected = (REFERENCE / f"{path.stem}.out").read_bytes()
    assert emit(run_task(load_problem(path))) == expected


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda path: path.stem)
def test_problem_table_matches_reference_bytes(path):
    expected = (REPO / "tests" / "reference" / f"{path.stem}.tsv").read_bytes()
    assert emit(run_task(load_problem(path)), "table") == expected
