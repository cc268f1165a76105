"""The summary of tools/bench_pairs.py: medians, quartiles and won pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, throughput, latency):
    metrics = {"throughput_ref": throughput, "latency_p50_ref": latency}
    return {"workload": "extend", "pair": pair, "side": side, "metrics": metrics}


def test_pairs_won_follow_each_metrics_direction_and_ties_count_for_neither():
    runs = []
    for pair, (pt, ct, pl, cl) in enumerate([(1.0, 1.2, 2.0, 1.5), (1.1, 1.0, 2.0, 2.0), (0.9, 1.3, 2.2, 2.5)]):
        runs += [_run(pair, "parent", pt, pl), _run(pair, "change", ct, cl)]
    runs.append(_run(3, "parent", 5.0, 5.0))  # an incomplete pair is left out
    summary = bench_pairs.summarise(runs, {"throughput_ref": "higher", "latency_p50_ref": "lower"},
                                    {"throughput_ref": 0.25, "latency_p50_ref": 0.25})
    rows = summary["extend"]
    assert rows["throughput_ref"]["change_won"] == 2
    assert rows["latency_p50_ref"]["change_won"] == 1
    assert rows["throughput_ref"]["pairs"] == 3
    assert rows["throughput_ref"]["parent"] == {"median": 1.0, "q1": 0.95, "q3": 1.05}
    assert rows["throughput_ref"]["parent_iqr"] == pytest.approx(0.1)
    assert "| extend | throughput_ref | 1 | 1.2 (+20.0%) | 2 of 3 | 10.0% |" in bench_pairs.markdown(summary)


def _row(parent, change, better):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(pair, "parent", p, p), _run(pair, "change", c, c)]
    metric = "throughput_ref" if better == "higher" else "latency_p50_ref"
    summary = bench_pairs.summarise(runs, {metric: better}, {metric: 0.25})
    return summary, summary["extend"][metric]


_TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.02, 0.98]  # IQR 2%
_WIDE = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]  # IQR 35%


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        # 10 of 10 pairs, the medians 20% apart, beyond the IQR of 2%
        (_TIGHT, [x * 1.2 for x in _TIGHT], "higher", "gain"),
        (_TIGHT, [x * 0.8 for x in _TIGHT], "lower", "gain"),
        # as far apart, but 8 of 10 pairs is no gain
        (_TIGHT, [x * 1.2 for x in _TIGHT[:8]] + [0.9, 0.9], "higher", "within bound"),
        # 9 of 10 pairs, the medians closer than the parent's IQR
        (_WIDE, [x + 0.01 for x in _WIDE[:9]] + [0.5], "higher", "unresolved"),
        # worse by more than the bound of 25%, in either direction
        (_TIGHT, [x * 0.7 for x in _TIGHT], "higher", "worse"),
        (_TIGHT, [x * 1.3 for x in _TIGHT], "lower", "worse"),
        (_WIDE, [x * 0.7 for x in _WIDE], "higher", "worse"),
        # a spread as wide as the bound hides a change of 5%
        (_WIDE, [x * 1.05 for x in _WIDE], "higher", "unresolved"),
        (_WIDE, [x * 0.95 for x in _WIDE], "lower", "unresolved"),
        # unless every change run beats every parent run (by less than the
        # parent's IQR, or it would be a gain)
        ([0.5, 0.55, 0.6, 0.65, 0.7, 0.95, 0.96, 0.97, 0.98, 0.99], [1.0] * 10, "higher", "within bound"),
        ([1.01, 1.02, 1.03, 1.04, 1.05, 1.3, 1.35, 1.4, 1.45, 1.5], [1.0] * 10, "lower", "within bound"),
        # a tight spread and a small change
        (_TIGHT, _TIGHT[::-1], "higher", "within bound"),
        (_TIGHT, [x * 0.9 for x in _TIGHT], "higher", "within bound"),
    ],
)
def test_each_row_reads_its_status_against_the_metrics_bound(parent, change, better, want):
    summary, row = _row(parent, change, better)
    assert row["status"] == want
    assert f"| {want} |" in bench_pairs.markdown(summary)


def test_environment_names_the_interpreter_the_machine_and_the_commit(tmp_path):
    import os
    import platform
    import subprocess

    import numpy

    root = _PATH.parent.parent
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\n")
    env = bench_pairs.environment(str(root), cpuinfo=str(cpuinfo))
    assert set(env) == {"python", "numpy", "blas", "cpu_model", "cpu_count", "commit", "dirty"}
    assert env["python"] == platform.python_version() and env["numpy"] == numpy.__version__
    assert env["blas"] is None or isinstance(env["blas"], str) and env["blas"]
    assert env["cpu_model"] == "Example CPU @ 2.00GHz"
    assert env["cpu_count"] == os.cpu_count()
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
    assert env["commit"] == head.stdout.strip() and len(env["commit"]) == 40
    assert isinstance(env["dirty"], bool)
    # an unreadable cpuinfo leaves the model unknown
    assert bench_pairs.environment(str(root), cpuinfo=str(tmp_path / "missing"))["cpu_model"] is None
