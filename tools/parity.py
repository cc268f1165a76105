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
  orders 4 and 6, and the ``map``, ``report``, ``spectra`` and
  ``substitution`` of ``check_universality_isomorphism`` on the same charts;
- the compositions ``Substitution(source, subs)(f)`` of seeded substitutions
  that fix the origin, with full, mixed, low or -1 effective orders, of a
  batch of jets and of a single jet: their coefficients and effective
  orders, not the table (its columns above the substitutions' effective
  order are no output);
- the outputs of the six operations the kernel rows of
  ``perfbench/kernels.py`` time, on each (variables, order) cell of its
  ``GRID``: ``Jet`` ``*``, ``partial``, ``invert``, ``sqrt`` and ``compose``,
  and the ``JetMatrix`` product, of seeded dense operands drawn as
  ``kernels.grid`` draws them.

Each output is dumped with every float as ``float.hex``, every jet array
as a SHA-1 of its coefficients together with its effective orders (a single
jet, whether a 0-dimensional array or an object ``Jet`` of an older tree,
in one form: its effective order capped at the jet order),
every other numpy array as a SHA-1 of its bytes, every report text as a
SHA-1 of its bytes, and every exception as its repr.  Each case is dumped
twice: its ``bits``, and its ``values``, the same dump with every -0 read
as +0 (a report text is re-encoded from its JSON with -0 read as 0).  The
script prints the cases whose bits differ, each labelled ``sign of zero
only`` when their values agree and ``values differ`` otherwise, with the
first differing path of its bits, and exits 1 if any case differs.
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
# (source variables, source order, target variables, target order) of the
# dumped substitutions, each with every effective-order kind of SUBSTITUTION_KINDS
SUBSTITUTION_SHAPES = ((1, 4, 1, 4), (2, 3, 3, 4), (3, 4, 2, 3), (3, 2, 4, 5), (4, 4, 4, 4), (2, 6, 1, 6))
SUBSTITUTION_KINDS = ("full", "mixed", "low", "none")
DUMP_TIMEOUT_S = 1800
TEXT_INLINE = 80  # longer strings are dumped as their SHA-1


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def digest(obj, _seen=(), zero_signs=True):
    """A JSON tree that is equal for two objects exactly when their bits are;
    with ``zero_signs`` false, when they are equal up to the sign of zeros
    (every float is read plus 0.0, which takes -0 to +0)."""
    # imported here: a dump process puts its tree's src/ on the path first
    import numpy as np
    from regfman.jets import Jet, JetArray, JetSpace
    from regfman.reports import ResidualReport

    if obj is None or isinstance(obj, (bool, int, np.bool_, np.integer)):
        return obj if not isinstance(obj, (np.bool_, np.integer)) else obj.item()
    def unsigned(x):
        return x if zero_signs else x + 0.0

    if isinstance(obj, (float, np.floating)):
        return unsigned(float(obj)).hex()
    if isinstance(obj, (complex, np.complexfloating)):
        return [unsigned(float(obj.real)).hex(), unsigned(float(obj.imag)).hex()]
    if isinstance(obj, str):
        return obj if len(obj) <= TEXT_INLINE else "sha1:" + _sha1(obj.encode())
    if isinstance(obj, JetSpace):
        return {"space": [obj.num_vars, obj.order]}
    if isinstance(obj, JetArray) and obj.shape == ():
        return _jet_digest(obj.coeffs, min(int(obj.eff), obj.space.order), unsigned)
    if isinstance(obj, JetArray):
        return {"jets": _sha1(np.ascontiguousarray(unsigned(obj.coeffs)).tobytes()), "eff": obj.eff.tolist()}
    if isinstance(obj, Jet):  # the object kernel of an older tree
        return _jet_digest(obj.coeffs, int(obj.eff_order), unsigned)
    if isinstance(obj, np.ndarray):
        data = unsigned(obj) if obj.dtype.kind in "fc" else obj
        return {"array": _sha1(np.ascontiguousarray(data).tobytes()), "dtype": str(obj.dtype),
                "shape": list(obj.shape)}
    if isinstance(obj, BaseException):
        return {"raised": repr(obj)}
    if id(obj) in _seen:
        return "<cycle>"
    seen = (*_seen, id(obj))
    if isinstance(obj, (dict, ResidualReport)):
        return [[str(k), digest(v, seen, zero_signs)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [digest(v, seen, zero_signs) for v in obj]
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        names = [k for k in vars(obj) if not k.startswith("_")]
    else:
        names = [k for k in getattr(type(obj), "__slots__", ()) if not k.startswith("_")]
    return {"type": type(obj).__name__, **{k: digest(getattr(obj, k), seen, zero_signs) for k in names}}


def _jet_digest(coeffs, eff: int, unsigned) -> dict:
    """One jet: its full-width coefficients and its effective order, capped
    at the jet order as indexing an array down to one entry once capped it."""
    import numpy as np

    return {"jet": _sha1(np.ascontiguousarray(unsigned(coeffs)).tobytes()), "eff": eff}


def dump_case(obj) -> dict:
    """The dump of one case: its ``bits`` and its ``values`` (the digest
    with every -0 read as +0)."""
    return {"bits": digest(obj), "values": digest(obj, zero_signs=False)}


def zero_blind(text: bytes) -> bytes:
    """A JSON report re-encoded with every -0 read as 0; other text as it is."""
    try:
        data = json.loads(text, parse_float=lambda s: float(s) + 0.0)
    except ValueError:
        return text
    return json.dumps(data, sort_keys=True).encode()


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


def universality_fields(chart, model) -> dict:
    """The ``map``, ``report``, ``spectra`` and ``substitution`` of
    ``check_universality_isomorphism(chart, model)``: the fields that every
    tree's ``GermIsomorphism`` has."""
    from regfman import malgrange

    iso = malgrange.check_universality_isomorphism(chart, model)
    return {field: getattr(iso, field) for field in ("map", "report", "spectra", "substitution")}


def substitution_outputs(seed: int, shape: tuple[int, ...], kind: str) -> dict:
    """The compositions through ``Substitution(source, subs)`` of a batch
    of three jets, of its first entry as a batch of one and of that entry
    as a 0-dimensional array.  The substitutions fix the origin, have sparse
    coefficients and effective orders of ``kind``: all the target order
    (``full``), each drawn from -1 to it (``mixed``), one drawn below it
    (``low``) or all -1 (``none``)."""
    import numpy as np
    from regfman.jets import JetArray, Substitution, jet_space

    rng = np.random.default_rng(seed)
    source_vars, source_order, target_vars, target_order = shape
    source, target = jet_space(source_vars, source_order), jet_space(target_vars, target_order)

    def rows(space, count):
        c = rng.standard_normal((count, space.size)) + 1j * rng.standard_normal((count, space.size))
        return c * (rng.random((count, space.size)) < 0.8)

    coeffs = rows(target, source_vars)
    coeffs[:, 0] = 0.0
    eff = {
        "full": np.full(source_vars, target_order),
        "mixed": rng.integers(-1, target_order + 1, source_vars),
        "low": np.full(source_vars, int(rng.integers(0, target_order))),
        "none": np.full(source_vars, -1),
    }[kind]
    sub = Substitution(source, JetArray(target, coeffs, eff))
    f = JetArray(source, rows(source, 3), rng.integers(-1, source_order + 1, 3))
    return {"batch": sub(f), "single": sub(f[:1]), "entry": sub(f[:1].reshape())}


def kernel_outputs(seed: int) -> dict:
    """The outputs of the operations ``kernels.grid`` times, by cell and
    operation, on operands drawn as it draws them from one generator."""
    import numpy as np
    import kernels
    from regfman.jets import JetMatrix, jet_space

    rng = np.random.default_rng(seed)
    out = {}
    for nvars, order in kernels.GRID:
        sp = jet_space(nvars, order)
        a, b = kernels._dense(sp, rng), kernels._dense(sp, rng)
        subs = [kernels._dense(sp, rng, const=0.0) for _ in range(nvars)]
        ma, mb = (JetMatrix([[kernels._dense(sp, rng) for _ in range(3)] for _ in range(3)]) for _ in range(2))
        out[f"v{nvars}k{order}"] = {
            "mul": a * b, "partial": a.partial(nvars - 1), "invert": a.invert(), "sqrt": a.sqrt(),
            "compose": a.compose(subs), "matmul": ma @ mb,
        }
    return out


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
            return dump_case(fn(*args))
        except Exception as exc:  # a refusal is an output too
            return dump_case(exc)

    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(SEED, tree)
        for i, case in enumerate(workload.cases):
            out[f"{name}/{i}"] = attempt(workload.run, case)
        for i, case in enumerate(workload.defect_cases()):
            out[f"{name}-defect/{i}"] = attempt(workload.run, case)
    for num_vars, order in TABLE_SPACES:
        out[f"jets/{num_vars},{order}"] = dump_case(space_tables(JetSpace(num_vars, order)))
    for blocks in FRAME_SPECTRA:
        n = sum(m for _, m in blocks)
        b0o = np.zeros((n, n), dtype=np.complex128)
        at = 0
        for a, m in blocks:
            b0o[at : at + m, at : at + m] = -regend.jordan_block(a, m)
            at += m
        spec = malgrange.DeformationSpec(b0o, np.diag(np.linspace(-0.5, 0.5, n)))
        for order in FRAME_ORDERS:
            chart = malgrange.integrate_chart(spec, order)
            model = malgrange.fmanifold_on_chart(chart)
            out[f"frame-brackets/{blocks},{order}"] = attempt(fman.check_frame_brackets, model)
            out[f"germ-iso/{blocks},{order}"] = attempt(universality_fields, chart, model)
    for i, (shape, kind) in enumerate((s, k) for s in SUBSTITUTION_SHAPES for k in SUBSTITUTION_KINDS):
        out[f"substitution/{shape},{kind}"] = attempt(substitution_outputs, SEED + i, shape, kind)
    for cell, outputs in kernel_outputs(SEED).items():
        for op, value in outputs.items():
            out[f"kernel/{cell},{op}"] = dump_case(value)
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
                out[key] = {
                    "bits": {"exit": status, "report": _sha1(text)},
                    "values": {"exit": status, "report": _sha1(zero_blind(text))},
                }
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


SIGN_OF_ZERO = "sign of zero only"
VALUES_DIFFER = "values differ"


def compare(parent: dict, change: dict) -> list[str]:
    """One line per case whose bits differ, in case order: its label
    (:data:`SIGN_OF_ZERO` when the values agree, else :data:`VALUES_DIFFER`)
    and the first differing path of its bits."""
    missing = {"bits": "<missing>", "values": "<missing>"}
    lines = []
    for key in dict.fromkeys([*parent, *change]):
        a, b = parent.get(key, missing), change.get(key, missing)
        if a["bits"] != b["bits"]:
            label = SIGN_OF_ZERO if a["values"] == b["values"] else VALUES_DIFFER
            lines.append(f"{key}: {label}: {first_difference(a['bits'], b['bits'])}")
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
    zeros = sum(f": {SIGN_OF_ZERO}: " in line for line in diffs)
    print(f"{len(diffs)} of {len(dumps['change'])} cases differ from {args.parent} ({zeros} in the sign of zero only)")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
