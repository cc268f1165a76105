"""Closed-loop benchmark of regfman: one process, one client, one operation
at a time.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs every workload in turn, each in its own process,
and prints one table.  The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import collections
import json
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3  # fresh-interpreter set-ups before and after the loop, for setup_s
REF_SHARE = 0.2  # reference-kernel time as a share of operation time
REF_LOOP = 1400
REF_WINDOW = 15  # reference timings that normalise one operation


_REF_TABLES = []


def _ref_tables():
    """Index tables of a dense product of two 70-coefficient series (the
    size of a 4-variable, order-4 jet): 495 pairs grouped by target."""
    import numpy as np

    if not _REF_TABLES:
        rng = np.random.default_rng(0)
        target = np.sort(rng.integers(0, 70, 495))
        _, starts = np.unique(target, return_index=True)
        _REF_TABLES.extend(
            [rng.integers(0, 70, 495), rng.integers(0, 70, 495), np.unique(target), starts,
             np.arange(70) < 35, rng.standard_normal(70) + 1j, rng.standard_normal(70) - 1j]
        )
    return _REF_TABLES


def _ref_step(acc: float, out) -> float:
    return acc + abs(out[1]) * 1e-9


def ref_kernel() -> float:
    """Fixed loop of small numpy operations and Python calls in the style of
    a jet product (gather, multiply, segmented sum, masking), independent
    of regfman.  The timings nearest to an operation are the unit of its
    ``_ref`` latency."""
    import numpy as np

    ii, jj, out_idx, starts, mask, a, b = _ref_tables()
    acc = 0.0
    for _ in range(REF_LOOP):
        if a.any() and b[1:].any():
            prod = a[ii] * b[jj]
            out = np.zeros(70, dtype=np.complex128)
            out[out_idx] = np.add.reduceat(prod, starts)
            out = np.where(mask, out, 0.0)
            acc = _ref_step(acc, out)
    return acc


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _prepare_imports(root: str) -> bool:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "regfman", "__init__.py")):
        return False
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    return True


def _setup(workload_name: str, seed: int, root: str, tracer=None):
    """Import regfman and build every input; returns (workload, seconds)."""
    start = time.perf_counter()
    import regfman  # noqa: F401  (timed import)

    if tracer is not None:
        tracer.install()
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, root)
    return workload, time.perf_counter() - start


def _setup_probe(workload: str, seed: int) -> float:
    """setup_s sample in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100): the
    order statistics weighted by a Beta(q(n+1), (100-q)(n+1)) law.  A run
    of `verify` holds only about 60 operations, and interpolating between
    the two order statistics next to the p90 made it jump between runs."""
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    grid = 20000
    t = (np.arange(grid) + 0.5) / grid  # midpoints of a grid on [0, 1]
    log_density = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_density - log_density.max()))])
    cdf /= cdf[-1]
    weights = np.diff(cdf[(np.arange(n + 1) * grid) // n])
    return float(weights @ xs)


class Loop:
    """Closed loop over a workload's schedule. After each operation the
    reference kernel runs until it has taken REF_SHARE of the operation
    time so far."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []  # seconds, ops that passed their check
        self.passed_mid: list[float] = []  # their midpoints in the run
        self.passed_kind: list = []  # and their kinds
        self.ref_ms: list[float] = []
        self.ref_mid: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs that are false, not just missing
        self.reasons: dict[str, int] = {}
        self.busy = 0.0

    def run(self, seconds=None, count=None, cases=None):
        """Run the schedule for ``seconds`` or ``count`` operations, or run
        ``cases`` once."""
        import workloads

        schedule = self.workload.schedule() if cases is None else iter(cases)
        if cases is not None:
            count = len(cases)
        clock = time.perf_counter
        start = clock()
        ref_busy = 0.0
        n = 0
        while (count is None or n < count) and (seconds is None or clock() - start < seconds):
            case = next(schedule)
            t = clock()
            result, outcome = workloads.attempt(self.workload, case)
            dt = clock() - t
            self.busy += dt
            if outcome is None:
                outcome = self.workload.check(case, result)
            self._record(dt, outcome, t + dt / 2, self.workload.kind(case))
            n += 1
            while ref_busy < REF_SHARE * self.busy:
                r = clock()
                ref_kernel()
                d = clock() - r
                ref_busy += d
                self.ref_ms.append(d * 1e3)
                self.ref_mid.append(r + d / 2)

    def local_ref_ms(self):
        """For each passed operation, the median of the REF_WINDOW reference
        timings nearest to it in time."""
        out = []
        for mid in self.passed_mid:
            k = bisect.bisect_left(self.ref_mid, mid)
            near = sorted(range(max(0, k - REF_WINDOW), min(len(self.ref_mid), k + REF_WINDOW)),
                          key=lambda i: abs(self.ref_mid[i] - mid))[:REF_WINDOW]
            out.append(statistics.median(self.ref_ms[i] for i in near))
        return out

    def _record(self, dt, outcome, mid, kind):
        self.attempted += 1
        if outcome.ok:
            self.latencies.append(dt)
            self.passed_mid.append(mid)
            self.passed_kind.append(kind)
            return
        self.failed += 1
        if outcome.wrong:
            self.wrong += 1
        for r in outcome.reasons:
            self.reasons[r] = self.reasons.get(r, 0) + 1


def _end_to_end(args, root) -> dict:
    workload, first = _setup(args.workload, args.seed, root)
    # fresh-interpreter samples before and after the loop, so that the
    # median spans the run's changes of machine speed
    setups = [first] + [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    loop = Loop(workload)
    loop.run(seconds=args.seconds)
    setups += [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    if not loop.latencies:
        raise RuntimeError("no operation passed its check")
    # each latency in units of the reference kernel timed around it
    rel = [dt * 1e3 / ref for dt, ref in zip(loop.latencies, loop.local_ref_ms())]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ref": (_percentile(rel, 50), "ref"),
        "latency_p90_ref": (_percentile(rel, 90), "ref"),
        "throughput_ref": (_mix_throughput(workload, loop.passed_kind, rel), "1/ref"),
        "ok_ratio": (len(loop.latencies) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "ops": loop.attempted,
        "failed_by_reason": loop.reasons,
        "ref_samples": len(loop.ref_ms),
        **_raw_timings(loop),
    }
    return _result(loop, metrics, info)


def _mix_throughput(workload, kinds, rel) -> float:
    """Operations per reference-kernel time at the pool's mix: each kind of
    case timed by its median latency and weighted by its share of the pool,
    so that neither a few slow outliers nor where a run stops move it."""
    pool = collections.Counter(workload.kind(case) for case in workload.cases)
    by_kind = collections.defaultdict(list)
    for kind, r in zip(kinds, rel):
        by_kind[kind].append(r)
    seen = [kind for kind in pool if kind in by_kind]
    return sum(pool[k] for k in seen) / sum(pool[k] * statistics.median(by_kind[k]) for k in seen)


def _raw_timings(loop) -> dict:
    """Wall-clock figures, kept as context: on a shared machine they drift
    with the host's load (see README.md)."""
    return {
        "latency_p50_ms": _percentile(loop.latencies, 50) * 1e3,
        "latency_p90_ms": _percentile(loop.latencies, 90) * 1e3,
        "ops_per_s": len(loop.latencies) / loop.busy,
        "ref_kernel_ms": statistics.median(loop.ref_ms),
    }


def _traced(args, root) -> dict:
    import tracing
    import kernels

    tracer = tracing.Tracer()
    workload, _ = _setup(args.workload, args.seed, root, tracer=tracer)
    # a fixed list of operations, so that counts repeat exactly for a seed
    count = tracing.TRACE_OPS[args.workload]
    traced = Loop(workload)
    tracer.start_ops()
    traced.run(count=count)
    tracer.uninstall()
    plain = Loop(workload)
    plain.run(count=count)
    metrics = tracer.metrics()
    raw = _raw_timings(plain)
    metrics["bench.ref_kernel_ms"] = (raw["ref_kernel_ms"], "ms")
    metrics["bench.latency_p50_ms"] = (raw["latency_p50_ms"], "ms")
    metrics["bench.latency_p90_ms"] = (raw["latency_p90_ms"], "ms")
    metrics["bench.ops_per_s"] = (raw["ops_per_s"], "1/s")
    # operation time of the same list with and without spans, each in units
    # of the reference kernel timed during it
    metrics["bench.trace_overhead"] = (
        (traced.busy / statistics.median(traced.ref_ms)) / (plain.busy / statistics.median(plain.ref_ms)),
        "ratio",
    )
    # the known-defect cases, untraced and kept out of the timed pool; their
    # failures are counted with those of the list
    defects = Loop(workload)
    defects.run(cases=workload.defect_cases())
    metrics["bench.known_defects.attempted"] = (defects.attempted, "count")
    metrics["bench.known_defects.failed"] = (defects.failed, "count")
    metrics["bench.failed_ratio"] = (
        (traced.failed + defects.failed) / (traced.attempted + defects.attempted), "ratio")
    import workloads

    for reason in workloads.FAIL_REASONS:
        metrics[f"bench.failed.{reason}"] = (
            traced.reasons.get(reason, 0) + defects.reasons.get(reason, 0), "count")
    metrics.update(kernels.grid(args.seed))
    info = {
        "ops": traced.attempted,
        "known_defects_failed_by_reason": defects.reasons,
        "trace_table": tracer.write_table(root, args.workload, args.seed),
    }
    result = _result(traced, metrics, info)
    result["correct"] = result["correct"] and defects.wrong == 0
    return result


def _declared_mismatch(root, kind, metrics) -> list:
    """Metric names or units that differ from those BENCHMARK.json declares."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[kind]}
    measured = {name: m["unit"] for name, m in metrics.items()}
    return sorted(set(declared.items()) ^ set(measured.items()))


def _result(loop, metrics, info) -> dict:
    return {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "_info": info,
    }


def _print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:7s} {name:40s} {m['value']:14.6g} {m['unit']}")
    info = result.pop("_info")
    print(f"{workload:7s} info {json.dumps(info, sort_keys=True)}")
    print(f"{workload:7s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")


def _run_all(args) -> int:
    import workloads

    combined = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["docs", "verify", "extend", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not _prepare_imports(root):
        return _fail(f"no regfman sources under {os.path.join(root, 'src')}; run from the repository root")
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        print(repr(_setup(args.workload, args.seed, root)[1]))
        return 0
    result = (_traced if args.trace else _end_to_end)(args, root)
    mismatch = _declared_mismatch(root, "per_layer" if args.trace else "end_to_end", result["metrics"])
    if mismatch:
        return _fail(f"metrics differ from BENCHMARK.json: {mismatch}")
    _print_result(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
