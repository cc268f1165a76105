"""Alternating parent/change runs of the benchmark, summarised in one file.

    python3 tools/bench_pairs.py PARENT_REF --out BENCH_9.json
    python3 tools/bench_pairs.py HEAD --pairs 1 --seconds 3 --out /tmp/bench.json   # smoke run

Run from the root of a checkout.  The committed files of ``PARENT_REF`` are
exported (``git archive``) to a temporary directory, deleted at the end, so
an interrupted run leaves nothing registered in the repository; the change
is the working tree the script runs from.  For each workload and each of
``--pairs`` seeds (``--seed``, ``--seed`` + 1, ...) both trees run their own
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, one process
at a time, the parent first on even pairs and the change first on odd ones.

The output file holds the machine and the change tree the runs come from
(``environment``: Python, numpy and BLAS versions, CPU model and count, the
change tree's commit and whether it had uncommitted changes), every run's
end-to-end metrics, then per workload and
metric each side's median and quartiles, the parent's interquartile range,
the number of pairs the change won (ties count for neither side; the
direction of each metric is the one ``BENCHMARK.json`` declares) and a
status read against the metric's ``BENCHMARK.json`` bound: ``gain``,
``worse``, ``unresolved`` or ``within bound`` (see :func:`status`).  The
same summary is printed as a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("extend", "verify", "docs")
RUN_TIMEOUT_S = 900


def export_tree(ref: str, into: str) -> None:
    """The committed files of ``ref`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def _git(tree: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True, text=True).stdout


def environment(tree: str, cpuinfo: str = "/proc/cpuinfo") -> dict:
    """The interpreter, numpy and its BLAS, the CPU and the commit of
    ``tree`` that the runs use; a field that cannot be read is None."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = None
    cpu = None
    try:
        with open(cpuinfo, encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "commit": _git(tree, "rev-parse", "HEAD").strip(),
        "dirty": bool(_git(tree, "status", "--porcelain").strip()),
    }


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run in ``tree``; its last output line as JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def status(row: dict, parent: list[float], change: list[float], bound: float) -> str:
    """The reading of one summary row against the metric's ``bound``, a
    fraction of the parent's median:

    - ``gain``: the change won at least 9 in 10 pairs, and its median is
      better than the parent's by more than the parent's IQR;
    - ``worse``: the change's median is worse by more than the bound;
    - ``unresolved``: the parent's IQR is at least the bound, and not every
      change run beats every parent run;
    - ``within bound``: any other case."""
    sign = 1.0 if row["better"] == "higher" else -1.0
    p, c = row["parent"]["median"], row["change"]["median"]
    scale = abs(p) or 1.0
    if 10 * row["change_won"] >= 9 * row["pairs"] and sign * (c - p) > row["parent_iqr"]:
        return "gain"
    if sign * (c - p) < -bound * scale:
        return "worse"
    separated = min(sign * x for x in change) > max(sign * x for x in parent)
    if row["parent_iqr"] >= bound * scale and not separated:
        return "unresolved"
    return "within bound"


def summarise(runs: list[dict], directions: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload and metric: each side's median and quartiles, the
    parent's interquartile range, the pairs the change won and its
    :func:`status` against the metric's bound in ``bounds``."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for metric, better in directions.items():
            sides = {s: [p[s]["metrics"][metric] for p in complete] for s in ("parent", "change")}
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (p["change"]["metrics"][metric] - p["parent"]["metrics"][metric]) > 0
                       for p in complete)
            row = {"better": better, "pairs": len(complete), "change_won": wins}
            for side, values in sides.items():
                q1, med, q3 = _quartiles(values)
                row[side] = {"median": med, "q1": q1, "q3": q3}
            row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["status"] = status(row, sides["parent"], sides["change"], bounds[metric])
            rows[metric] = row
        out[workload] = rows
    return out


def markdown(summary: dict) -> str:
    lines = [
        "| workload | metric | parent | change | change better in | parent IQR | status |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for workload, rows in summary.items():
        for metric, row in rows.items():
            p, c = row["parent"]["median"], row["change"]["median"]
            rel = f" ({(c - p) / p:+.1%})" if p else ""
            iqr = f"{row['parent_iqr'] / p:.1%}" if p else f"{row['parent_iqr']:.3g}"
            lines.append(
                f"| {workload} | {metric} | {p:.4g} | {c:.4g}{rel} | "
                f"{row['change_won']} of {row['pairs']} | {iqr} | {row['status']} |"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    change = os.getcwd()
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    directions = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}
    env = environment(change)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        export_tree(args.parent, parent)
        trees = {"parent": parent, "change": change}
        for workload in WORKLOADS:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side, **run})
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          f"throughput_ref {run['metrics']['throughput_ref']:.4g}", file=sys.stderr)
    summary = summarise(runs, directions, bounds)
    doc = {
        "parent": subprocess.run(["git", "rev-parse", args.parent], check=True, capture_output=True,
                                 text=True).stdout.strip(),
        "command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "environment": env,
        "runs": runs,
        "summary": summary,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(markdown(summary))
    failed = [r for r in runs if not r["correct"] or r["failed"]]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
