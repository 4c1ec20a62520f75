"""Tests of the benchmark itself: seeded inputs, span arithmetic, repeatable
work counts, and a short run of every workload with no failed item.

    python3 -m pytest perfbench/tests -q
"""

import json
import pickle
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = ("roundtrip", "perpartes", "geometry")


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", IN_PROCESS + ("cli-cold",))
def test_inputs_depend_only_on_the_seed(name):
    first = pickle.dumps(workloads.pool(name, 5)[1][:8])
    assert pickle.dumps(workloads.pool(name, 5)[1][:8]) == first
    assert pickle.dumps(workloads.pool(name, 6)[1][:8]) != first


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),    # overlaps a: [1, 6] covered once
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 8.0, 12.0, 0, 0),   # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tail_has_ten_items_beyond_it():
    from run import tail
    assert tail(list(range(20, 0, -1))) == (10, 0.5)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 1.0)


def _traced_counts(name, items):
    import stieltjes.cli  # noqa: F401
    workload, pool = workloads.pool(name, 4)
    tracer = tracing.Tracer()
    tracer.install()
    calls, counts = Counter(), Counter()
    try:
        for i, inputs in enumerate(pool[:items]):
            tracer.begin(i)
            workload.run(inputs)
            item_calls, item_counts, _ = tracer.end()
            calls.update(item_calls)
            counts.update(item_counts)
    finally:
        tracer.uninstall()
    return calls, counts


@pytest.mark.parametrize("name,items", [("roundtrip", 4), ("perpartes", 8),
                                        ("geometry", 4)])
def test_work_counts_repeat(name, items):
    first = _traced_counts(name, items)
    assert first == _traced_counts(name, items)
    calls, counts = first
    assert calls["functions.values_at"] > 0
    assert counts["functions.values_at.points"] > 0
    if name == "geometry":
        assert counts["semivariation.e_set.generators"] > 0
        assert calls["representation.hull_membership"] > 0
    else:
        assert calls["integrals.drive"] > 0
        assert counts["integrals.levels"] >= 2 * calls["integrals.drive"]


def test_install_rebinds_imported_names_and_uninstall_restores():
    import stieltjes
    import stieltjes.cli
    import stieltjes.integrals
    import stieltjes.representation
    original = stieltjes.integrals.integrate_g_dx
    tracer = tracing.Tracer()
    assert len(tracer.install()) == len(tracing.TARGETS)
    try:
        wrapped = stieltjes.integrals.integrate_g_dx
        assert wrapped is not original
        assert stieltjes.representation.integrate_g_dx is wrapped
        assert stieltjes.integrate_g_dx is wrapped
        assert stieltjes.cli.integrate_g_dx is wrapped
    finally:
        tracer.uninstall()
    assert stieltjes.representation.integrate_g_dx is original
    assert not hasattr(stieltjes.cli.run_task, "__wrapped__")


@pytest.mark.parametrize("name", IN_PROCESS + ("cli-cold",))
def test_short_run_reports_every_metric_without_errors(name):
    proc = run_bench(name, 0)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["failed"] == 0 and doc["correct"] is True
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert doc["metrics"]["success_rate"]["value"] == 1.0


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("roundtrip", 1)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert doc["metrics"]["integrals.drives"]["value"] > 0
    assert doc["metrics"]["cli.import_s"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("roundtrip", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
