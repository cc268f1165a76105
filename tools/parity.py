"""Bit-identity of every benchmark output between a parent commit and the working tree.

    python3 tools/parity.py PARENT_REF
    python3 tools/parity.py HEAD        # the dump is deterministic: expect exit 0

Run from the root of a checkout.  The committed files of ``PARENT_REF`` are
exported (``git archive``) to a temporary directory, deleted at the end; the
change is the working tree the script runs from.  Each tree, in its own
process with one BLAS thread, runs with its own ``src/`` and ``perfbench/``:

- every case of the seed-4242 pools of ``perfbench/workloads.py`` (``docs``,
  ``verify`` and ``extend``) and the ``extend`` known-defect cases, through
  the workload's own ``run``;
- every ``docs/tasks`` document through ``regfman run``, at its own order and
  with ``--order 6``: the exit status and the report bytes;
- the index tables of ``JetSpace`` (exponents, degrees, derivative, shift,
  gradient, factor and Cauchy tables) on a fixed grid of (variables, order) spaces;
- the report of ``check_frame_brackets`` on the chart models
  (``fmanifold_on_chart``) of single Jordan blocks and of products, at
  orders 4 and 6.

Each output is dumped with every float as ``float.hex``, every jet array
(and jet) as a SHA-1 of its coefficients together with its effective orders,
every other numpy array as a SHA-1 of its bytes, every report text as a
SHA-1 of its bytes, and every exception as its repr.  The script prints the
cases whose dumps differ, with the first differing path of each, and exits 1
if any do.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import export_tree

SEED = 4242
# (variables, order) of the spaces whose index tables are dumped
TABLE_SPACES = ((1, 0), (2, 0), (1, 6), (3, 4), (4, 6), (7, 4), (40, 2), (63, 1))
# Jordan blocks (eigenvalue, size) of the chart models whose frame-bracket
# reports are dumped, each at both orders of FRAME_ORDERS
FRAME_SPECTRA = (
    *(((a, m),) for a in (0.0, 0.5 - 0.5j, 2.0) for m in (1, 2, 3, 4, 5)),
    ((0.0, 1), (1.0, 1)),
    ((0.0, 2), (1.0, 1)),
    ((0.5, 2), (-1.0, 2)),
)
FRAME_ORDERS = (4, 6)
DUMP_TIMEOUT_S = 1800
TEXT_INLINE = 80  # longer strings are dumped as their SHA-1


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def digest(obj, _seen=()):
    """A JSON tree that is equal for two objects exactly when their bits are."""
    # imported here: a dump process puts its tree's src/ on the path first
    import numpy as np
    from regfman.jets import Jet, JetArray, JetSpace
    from regfman.reports import ResidualReport

    if obj is None or isinstance(obj, (bool, int, np.bool_, np.integer)):
        return obj if not isinstance(obj, (np.bool_, np.integer)) else obj.item()
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real).hex(), float(obj.imag).hex()]
    if isinstance(obj, str):
        return obj if len(obj) <= TEXT_INLINE else "sha1:" + _sha1(obj.encode())
    if isinstance(obj, JetSpace):
        return {"space": [obj.num_vars, obj.order]}
    if isinstance(obj, JetArray):
        return {"jets": _sha1(np.ascontiguousarray(obj.coeffs).tobytes()), "eff": obj.eff.tolist()}
    if isinstance(obj, Jet):
        return {"jet": _sha1(np.ascontiguousarray(obj.coeffs).tobytes()), "eff": int(obj.eff_order)}
    if isinstance(obj, np.ndarray):
        return {"array": _sha1(np.ascontiguousarray(obj).tobytes()), "dtype": str(obj.dtype),
                "shape": list(obj.shape)}
    if isinstance(obj, BaseException):
        return {"raised": repr(obj)}
    if id(obj) in _seen:
        return "<cycle>"
    seen = (*_seen, id(obj))
    if isinstance(obj, (dict, ResidualReport)):
        return [[str(k), digest(v, seen)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [digest(v, seen) for v in obj]
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        names = [k for k in vars(obj) if not k.startswith("_")]
    else:
        names = [k for k in getattr(type(obj), "__slots__", ()) if not k.startswith("_")]
    return {"type": type(obj).__name__, **{k: digest(getattr(obj, k), seen) for k in names}}


def space_tables(space) -> dict:
    """The index tables of a ``JetSpace``, with the exponents as one
    ``(size, num_vars)`` int64 array and the factor table as one
    ``(size - 1, 2)`` int64 array, whatever container the space keeps them
    in."""
    import numpy as np

    return {
        "exponents": np.asarray(space.exponents, dtype=np.int64),
        "degrees": space.degrees,
        "diff": space._diff,
        "shift": space._shift,
        "grad": space._grad,
        "factors": np.asarray(space._factors, dtype=np.int64).reshape(-1, 2),
        "cauchy": space._cauchy,
    }


def dump(tree: str) -> dict:
    """Every output of ``tree``, by case name."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import regfman
    import workloads
    import numpy as np
    from regfman import cli, fman, malgrange, regend
    from regfman.jets import JetSpace

    if not os.path.abspath(regfman.__file__).startswith(os.path.abspath(tree) + os.sep):
        raise RuntimeError(f"regfman imported from {regfman.__file__}, not from {tree}")

    def attempt(fn, *args):
        try:
            return digest(fn(*args))
        except Exception as exc:  # a refusal is an output too
            return digest(exc)

    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(SEED, tree)
        for i, case in enumerate(workload.cases):
            out[f"{name}/{i}"] = attempt(workload.run, case)
        for i, case in enumerate(workload.defect_cases()):
            out[f"{name}-defect/{i}"] = attempt(workload.run, case)
    for num_vars, order in TABLE_SPACES:
        out[f"jets/{num_vars},{order}"] = digest(space_tables(JetSpace(num_vars, order)))
    for blocks in FRAME_SPECTRA:
        n = sum(m for _, m in blocks)
        b0o = np.zeros((n, n), dtype=np.complex128)
        at = 0
        for a, m in blocks:
            b0o[at : at + m, at : at + m] = -regend.jordan_block(a, m)
            at += m
        spec = malgrange.DeformationSpec(b0o, np.diag(np.linspace(-0.5, 0.5, n)))
        for order in FRAME_ORDERS:
            model = malgrange.fmanifold_on_chart(malgrange.integrate_chart(spec, order))
            out[f"frame-brackets/{blocks},{order}"] = attempt(fman.check_frame_brackets, model)
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        report = os.path.join(scratch, "report.json")
        for doc in sorted(glob.glob(os.path.join(tree, "docs", "tasks", "*.json"))):
            for extra in ([], ["--order", "6"]):
                if os.path.exists(report):
                    os.remove(report)
                try:
                    status = cli.main(["run", doc, "--out", report, *extra])
                except Exception as exc:
                    status = repr(exc)
                text = b""
                if os.path.exists(report):
                    with open(report, "rb") as f:
                        text = f.read()
                key = f"cli/{os.path.basename(doc)}{' '.join(['', *extra])}"
                out[key] = {"exit": status, "report": _sha1(text)}
    return out


def first_difference(a, b, path: str = "") -> str:
    """The path of the first leaf at which two dumps differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in dict.fromkeys([*a, *b]):
            if a.get(k, "<missing>") != b.get(k, "<missing>"):
                return first_difference(a.get(k, "<missing>"), b.get(k, "<missing>"), f"{path}/{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_difference(x, y, f"{path}[{i}]")
    return f"{path or '/'}: {json.dumps(a)[:120]} != {json.dumps(b)[:120]}"


def compare(parent: dict, change: dict) -> list[str]:
    """One line per case whose dumps differ, in case order."""
    lines = []
    for key in dict.fromkeys([*parent, *change]):
        a, b = parent.get(key, "<missing>"), change.get(key, "<missing>")
        if a != b:
            lines.append(f"{key}: {first_difference(a, b)}")
    return lines


def _dump_in(tree: str, into: str) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", tree, "--into", into],
        cwd=tree, env=env, check=True, timeout=DUMP_TIMEOUT_S,
    )
    with open(into) as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="git ref of the parent commit")
    parser.add_argument("--dump", metavar="TREE", help=argparse.SUPPRESS)
    parser.add_argument("--into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        with open(args.into, "w") as f:
            json.dump(dump(args.dump), f)
        return 0
    if args.parent is None:
        parser.error("PARENT_REF is required")

    with tempfile.TemporaryDirectory(prefix="parity-parent-") as parent:
        export_tree(args.parent, parent)
        dumps = {
            side: _dump_in(tree, os.path.join(parent, f".parity-{side}.json"))
            for side, tree in (("parent", parent), ("change", os.getcwd()))
        }
    diffs = compare(dumps["parent"], dumps["change"])
    for line in diffs:
        print(line)
    print(f"{len(diffs)} of {len(dumps['change'])} cases differ from {args.parent}")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
