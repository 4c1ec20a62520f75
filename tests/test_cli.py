import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from stieltjes.cli import emit, load_problem, main, run_task
from stieltjes.errors import SchemaError

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


def test_table_header_only_without_trace():
    doc = problem("eset", {"x": STEP}, {"function": "x"})
    data = emit(run_task(doc), "table").decode()
    assert data == "level\tmesh\tvalue\testimates\n"


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
    too_many = write_problem(
        tmp_path, problem("semivariation", {"x": big}, {"function": "x"},
                          space=PLANE),
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
