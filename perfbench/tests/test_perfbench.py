"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import covertawgn as cw  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_workload_names_match_benchmark_json():
    assert tuple(NAMES) == workloads.NAMES


def test_op_ratio_counts_program_cost_in_reference_loops():
    import run

    class TwoLoops:
        def op(self, i):
            run.reference_loop_s()
            run.reference_loop_s()
            return workloads.Tally()

    times, refs, _ = run.run_ops(TwoLoops(), 0.0, 5)
    assert list(times) == list(refs) == list(range(5))
    assert 1.5 < statistics.median(times[i] / refs[i] for i in times) < 2.5


def _tamper(wl):
    """Move one reference value far from the truth."""
    key = next(iter(wl.ref))
    if isinstance(wl.ref[key], dict):
        wl.ref[key] = {k: 2.0 * v + 1.0 for k, v in wl.ref[key].items()}
    else:
        wl.ref[key] = 2.0 * wl.ref[key] + 1.0


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_reference_is_a_failed_item(workload, tmp_path):
    wl = workloads.make(workload, 5, str(tmp_path), smoke=True)
    wl.setup()
    wl.reference()
    assert wl.op(0).wrong == 0
    _tamper(wl)
    tally = wl.op(1)
    assert tally.wrong >= 1
    assert tally.items == tally.ok + tally.defects + tally.wrong


def test_tracer_wraps_every_binding_site_and_nests_spans():
    original = cw.truncgauss.sample_codewords
    tracer = Tracer()
    tracer.install()
    try:
        for site in (cw, cw.truncgauss, cw.simkit):
            assert site.sample_codewords.__wrapped__ is original
        tracer.op_id = 0
        cw.shell_mass(100, 0.8)
    finally:
        tracer.uninstall()
    assert cw.simkit.sample_codewords is original
    spans = tracer.arrays()
    # shell_mass and its two reg_inc_gamma_lower calls
    assert list(spans["parent"]) == [-1, 0, 0]
    metrics = tracer.per_op_metrics({0: 1.0})
    assert metrics["truncgauss.shell_mass.calls"] == 1
    assert metrics["specfn.reg_inc_gamma_lower.calls"] == 2
    assert metrics["truncgauss.shell_mass.self_s"] >= 0.0


def test_refused_spec_is_a_known_defect_only_where_delta_rounds_to_one(tmp_path):
    wl = workloads.ClosedFormGrid(5, 10**5, 2, str(tmp_path))
    wl.setup()
    wl.reference()
    # ROADMAP item 4: Delta rounds to 1 at mu=0.95 from n ~ 53200 on
    assert wl.delta_is_one and min(wl.delta_is_one) > 50_000
    top = wl.params[-1]
    tally = workloads.Tally()
    assert wl._grid_point(top, tally) and tally.items == 0
    wl.delta_is_one.clear()
    assert not wl._grid_point(top, tally)
    assert tally.wrong == 1


def test_complement_miss_beyond_absolute_accuracy_is_wrong(tmp_path):
    wl = workloads.ClosedFormGrid(5, 10**4, 2, str(tmp_path))
    wl.setup()
    wl.reference()
    n, mu = wl.spots[0]
    wl.ref[(n, mu)]["complement"] = 0.5
    tally = workloads.Tally()
    wl._spot_check(tally, n, mu)
    assert tally.wrong == 1 and tally.defects == 0
