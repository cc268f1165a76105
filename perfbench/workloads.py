"""Seeded inputs, operations and output checks for the three workloads.

Each workload builds a pool of *cases* before timing starts and runs them in
a fixed order, over and over.  The structure of a case (block sizes, order,
label, family, spacing, weight) is set by its place in the pool, so every
seed gets the same mix; the seed draws the coefficients and eigenvalues (and,
on `docs`, the order).  On `verify` and `extend` the order spreads every
class of case evenly over the pool, so that any stretch of a run holds the
pool's mix and the latency percentiles do not depend on how far a run gets.

Why each workload and input range was chosen is written next to its
generator; README.md in this directory collects the same notes.
"""

from __future__ import annotations

import json
import os
import types

import numpy as np

import regfman
from regfman import cli
from regfman.errors import ChartDegeneracyError, ConstructionInconsistencyError, RegfmanError

FAIL_REASONS = (
    "chart_degeneracy",
    "construction_inconsistency",
    "other_refusal",
    "crash",
    "wrong_verdict",
    "oracle_disagrees",
    "origin_match",
    "euler_law",
    "fmanifold_residual",
    "bad_report",
)


class GeneratorError(RuntimeError):
    """A generated input failed its own admissibility check."""


class Outcome:
    """Checked result of one operation.

    ``reasons`` lists every check the operation failed.  ``wrong`` marks an
    output that is false rather than missing: a crash outside the program's
    own error types, an unreadable report, or a structure accepted although
    it is not Frobenius by construction.  A refusal (a regfman error, or a
    valid input rejected) is a failure but not a wrong output.
    """

    __slots__ = ("reasons", "wrong")

    def __init__(self, reasons=(), wrong=False):
        self.reasons = tuple(reasons)
        self.wrong = wrong

    @property
    def ok(self) -> bool:
        return not self.reasons


def _exception_outcome(exc: BaseException) -> Outcome:
    if isinstance(exc, ChartDegeneracyError):
        return Outcome(["chart_degeneracy"])
    if isinstance(exc, ConstructionInconsistencyError):
        return Outcome(["construction_inconsistency"])
    if isinstance(exc, RegfmanError):
        return Outcome(["other_refusal"])
    return Outcome(["crash"], wrong=True)


# -- shared generators -----------------------------------------------------------


def solve_skew_endomorphism(gram: np.ndarray, weight: complex) -> np.ndarray:
    """Least-squares skew endomorphism with the unit column fixed by the
    weight: V^T G + G V = 0 and V e_0 = (1 - weight/2) e_0."""
    n = gram.shape[0]
    v0 = np.zeros(n, dtype=complex)
    v0[0] = 1.0 - weight / 2.0
    rows, rhs = [], []
    for i in range(n):
        for j in range(i, n):
            row = np.zeros(n * (n - 1), dtype=complex)
            acc = 0.0 + 0.0j
            for k in range(n):
                for col in range(n):
                    coeff = (gram[k, j] if col == i else 0.0) + (
                        gram[i, k] if col == j else 0.0
                    )
                    if coeff == 0.0:
                        continue
                    if col == 0:
                        acc -= v0[k] * coeff
                    else:
                        row[(col - 1) * n + k] += coeff
            rows.append(row)
            rhs.append(acc)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    v = np.column_stack([v0] + [sol[c * n : (c + 1) * n] for c in range(n - 1)])
    residual = np.max(np.abs(v.T @ gram + gram @ v))
    if residual > 1e-10:
        raise GeneratorError(f"skew endomorphism residual {residual:.2e}")
    return v


WEIGHTS = (2.0, 2.5, 3.0)

# Gram matrices are redrawn above a condition number; validation itself
# accepts up to 1e10.  The verdict residual of an extension grows with the
# Gram condition: the timed `extend` cases stay at or below GRAM_CONDITION,
# where the largest residual seen on their ranges (40 seeds, 2640 cases)
# was more than 25x below the 1e-8 tolerance; the `docs` variants and the
# known-defect cases of `extend` range up to WIDE_GRAM_CONDITION.
GRAM_CONDITION = 1e3
WIDE_GRAM_CONDITION = 1e6


def admissible_data(spectrum, order, weight, rng, max_condition) -> regfman.InitialData:
    """Initial data on ``standard_model(spectrum, order)``: a Hankel Gram
    matrix whose moments h_k, k >= n, follow the companion matrix of the
    origin multiplication, with h_0 = 0 unless the weight is 2, and the
    least-squares skew endomorphism.  Gram matrices with a condition number
    above ``max_condition`` are redrawn.  Validated before it is returned."""
    model = regfman.standard_model(spectrum, order)
    n = model.dim
    u0 = regfman.mult_by_euler(model).constant_term()
    e0 = model.unit.constant_terms()
    last = regfman.cyclic_basis_representation(u0, e0)[:, n - 1]
    for _ in range(5000):
        h = np.zeros(2 * n - 1, dtype=complex)
        h[:n] = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        if weight != 2.0:
            h[0] = 0.0
        for k in range(n, 2 * n - 1):
            h[k] = sum(last[i] * h[k - n + i] for i in range(n))
        gram = np.array([[h[i + j] for j in range(n)] for i in range(n)])
        if np.linalg.cond(gram) <= max_condition:
            break
    else:
        raise GeneratorError(f"no Gram matrix with condition <= {max_condition:g} for {spectrum}")
    skew = solve_skew_endomorphism(gram, weight)
    data = regfman.InitialData(model, gram, skew, weight)
    validation = regfman.validate_initial_data(data)
    if not validation.passed(1e-8):
        raise GeneratorError(
            f"generated data rejected for spectrum {spectrum}, K={order}, "
            f"weight {weight}: {validation.residuals.worst()}"
        )
    return data


def _spaced_spectrum(sizes, spacing, rng):
    a0 = float(rng.uniform(-1.0, 1.0))
    return [(a0 + k * spacing, m) for k, m in enumerate(sizes)]


def _interleaved(classes):
    """An order of the cases that spreads each class evenly over the pool,
    keeping the pool order inside a class."""
    groups: dict = {}
    for i, key in enumerate(classes):
        groups.setdefault(key, []).append(i)
    places = []
    for g, members in enumerate(groups.values()):
        for j, i in enumerate(members):
            places.append(((j + 0.5) / len(members), g, i))
    return [i for _, _, i in sorted(places)]


class Workload:
    """A pool of cases run in a fixed order, an operation and its check."""

    name = ""

    def __init__(self, seed: int, root: str):
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.cases: list = []
        self.order: list[int] = []

    def schedule(self):
        """Endless sequence of cases."""
        while True:
            for i in self.order:
                yield self.cases[i]

    def kind(self, case):
        """The class of a case: the cases of one kind cost about the same."""
        raise NotImplementedError

    def defect_cases(self) -> list:
        """Cases that meet a known defect of the program.  They are kept out
        of the timed pool, whose operations must all pass, and run once in
        the traced run, where their failures are counted."""
        return []

    def run(self, case):
        raise NotImplementedError

    def check(self, case, result) -> Outcome:
        raise NotImplementedError


# -- docs ---------------------------------------------------------------------------
#
# Why: many small jet spaces (size <= 210, dimension <= 4 at K <= 6) and
# operations of 0.5-90 ms, so per-call overhead, CLI decoding and encoding,
# regend and saito dominate.  A change that helps large spaces but adds
# overhead to tiny ones shows here.  Every docs/tasks document runs at its
# own order and at order 6 (as `regfman run --order 6`), plus seeded
# variants of the documents that carry a spectrum.


# the nine documents of docs/tasks; each is expected to pass
DOCUMENTS = (
    "birkhoff-flatness",
    "extend-metric",
    "germ-iso",
    "malgrange-chart",
    "saito-check",
    "standard-model",
    "symmetries",
    "verify-fmanifold",
    "verify-frobenius",
)


def _encode(report) -> str:
    """The bytes `regfman run` writes for a report."""
    return json.dumps(report, sort_keys=True, indent=2)


def _jet_terms(terms):
    return [[list(e), [float(c.real), float(c.imag)]] for e, c in terms]


def _cplx(z):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m):
    return [[_cplx(x) for x in row] for row in np.asarray(m)]


def _spectrum_doc(spec):
    return [{"re": float(np.real(a)), "im": float(np.imag(a)), "size": m} for a, m in spec]


class DocsWorkload(Workload):
    name = "docs"
    VARIANTS = 2  # seeded variants per spectrum-carrying document

    def __init__(self, seed, root):
        super().__init__(seed, root)
        base = []
        for name in DOCUMENTS:
            with open(os.path.join(root, "docs", "tasks", name + ".json"), encoding="utf-8") as handle:
                base.append((name, json.load(handle), True))
        for c in range(4):
            docs = base + self._variants(c)
            self.cases += [(label, doc, order, expected) for label, doc, expected in docs for order in (None, 6)]
        self.order = [int(i) for i in self.rng.permutation(len(self.cases))]
        # the CLI builds its jet spaces on demand: build every one the cases
        # can need (at most 4 variables; orders 3, 4 and the override 6)
        for num_vars in range(1, 5):
            for order in (3, 4, 6):
                regfman.jet_space(num_vars, order)

    def _eigen(self):
        return complex(round(float(self.rng.uniform(-2.0, 2.0)), 3), round(float(self.rng.uniform(-1.0, 1.0)), 3))

    def _spectrum(self, sizes):
        a0 = self._eigen()
        spacing = float(self.rng.uniform(0.5, 2.0))
        return [(a0 + k * spacing, m) for k, m in enumerate(sizes)]

    def _variants(self, repeat):
        """Seeded variants; their block structure and weight are fixed by
        their place, so every seed gets the same mix of sizes."""
        rng = self.rng
        out = []
        settings = lambda order, tol: {"order": order, "tolerance": tol}
        for v in range(self.VARIANTS):
            slot = repeat * self.VARIANTS + v
            spec = self._spectrum([[2, 1], [1, 1, 1], [3], [2, 2]][slot % 4])
            out.append(
                (
                    "standard-model~",
                    {"schema": "regfman-doc/1", "task": "standard-model",
                     "settings": settings(4, 1e-10), "payload": {"spectrum": _spectrum_doc(spec)}},
                    True,
                )
            )
            spec = self._spectrum([[2, 1], [1, 2], [3], [1, 1]][slot % 4])
            out.append(
                (
                    "verify-fmanifold~",
                    {"schema": "regfman-doc/1", "task": "verify-fmanifold",
                     "settings": settings(4, 1e-10), "payload": {"spectrum": _spectrum_doc(spec)}},
                    True,
                )
            )
            spec = _spectrum_doc([(self._eigen(), 2)])
            out.append(
                (
                    "germ-iso~",
                    {"schema": "regfman-doc/1", "task": "germ-iso", "settings": settings(3, 1e-8),
                     "payload": {"model_a": {"spectrum": spec}, "model_b": {"spectrum": spec}}},
                    True,
                )
            )
            # eta1 = 1 + s t1 is Frobenius on a 2-block; adding t0 (the unit
            # direction) to it breaks unit flatness
            s = round(float(rng.uniform(0.3, 1.0)), 3)
            positive = v % 2 == 0
            eta1 = [((0, 0), 1.0), ((0, 1), s)] + ([] if positive else [((1, 0), s)])
            out.append(
                (
                    "verify-frobenius~",
                    {"schema": "regfman-doc/1", "task": "verify-frobenius", "settings": settings(4, 1e-9),
                     "payload": {"spectrum": _spectrum_doc([(self._eigen(), 2)]),
                                 "eta": [[[], _jet_terms(eta1)]]}},
                    positive,
                )
            )
            weight = WEIGHTS[slot % len(WEIGHTS)]
            data = admissible_data([(self._eigen(), 2)], 3, weight, rng, WIDE_GRAM_CONDITION)
            out.append(
                (
                    "extend-metric~",
                    {"schema": "regfman-doc/1", "task": "extend-metric", "settings": settings(3, 1e-8),
                     "payload": {"spectrum": _spectrum_doc(data.model.blocks),
                                 "gram": _matrix(data.gram), "skew": _matrix(data.skew),
                                 "weight": _cplx(weight)}},
                    True,
                )
            )
        return out

    def kind(self, case):
        return case[0], case[2]

    def run(self, case):
        _, doc, order, _ = case
        args = types.SimpleNamespace(order=order, tol=None, seed=None)
        report, _ = cli.run_document(doc, args)
        return _encode(report)

    def check(self, case, text) -> Outcome:
        try:
            report = json.loads(text)
        except ValueError:
            return Outcome(["bad_report"], wrong=True)
        if report.get("pass") is not case[3]:
            # accepting a document built to fail is a wrong output
            return Outcome(["wrong_verdict"], wrong=not case[3])
        return Outcome()


# -- verify ----------------------------------------------------------------------------
#
# Why: check_fmanifold and frobenius_verdict with the curvature oracle on
# multi-block constant-multiplication models of dimension 4-7 at K=4.
# Almost all time goes to Jet.__mul__ and JetMatrix.__matmul__ (the
# Darboux-Egoroff residual, the oracle, the integrability loops); compose
# never runs, so a compose-only change must leave this workload unchanged.
# The small patterns are weighted up so that a run holds enough operations
# for its percentiles; every pattern runs in every stretch of a run.

VERIFY_MIX = (
    # (block sizes, cases per repeat); fastest first
    ((2, 2), 8),
    ((3, 2), 4),
    ((2, 2, 1), 4),
    ((2, 2, 2), 2),
    ((3, 3), 3),
    ((4, 3), 1),
)

# per-block Frobenius families: tests/test_acceptance.py::_metric_suite,
# with the coordinate rescaled by a seeded factor s
_FAMILIES = {1: ("const",), 2: ("epsilon", "const", "lin", "sq", "inv", "sqrt"), 3: ("epsilon", "const", "invsq"), 4: ("epsilon", "const")}


def _binomial(sp, var, alpha, s):
    """(1 + s t_var)^alpha as a jet."""
    t = sp.variable(var).scale(s)
    out = sp.constant(1.0)
    term = sp.constant(1.0)
    c = 1.0
    for k in range(1, sp.order + 1):
        c *= (alpha - k + 1) / k
        term = term * t
        out = out + term.scale(c)
    return out


def _block_family(sp, off, m, kind, with_eta0, rng):
    one, zero = sp.constant(1.0), sp.zero()
    s = float(rng.uniform(0.3, 1.0))
    top_value = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    if kind == "epsilon":
        return [zero] * (m - 1) + [one]
    if kind == "const":
        return [sp.constant(float(x)) for x in rng.uniform(-0.5, 0.5, m - 1)] + [sp.constant(top_value)]
    if kind == "invsq":
        return [zero, zero, _binomial(sp, off + 2, -2.0, s)]
    alpha = {"lin": 1.0, "sq": 2.0, "inv": -1.0, "sqrt": 0.5}[kind]
    eta0 = sp.constant(float(rng.uniform(-0.5, 0.5))) if with_eta0 else zero
    return [eta0, _binomial(sp, off + 1, alpha, s)]


class VerifyWorkload(Workload):
    """The structure of every case (pattern, label, family per block,
    whether a block's eta_0 is constant, kind of perturbation) is fixed by
    its place in the mix and repeats identically, so the time mix depends
    neither on the seed nor on how far a run gets; the seed draws the
    eigenvalues, the family coefficients and the perturbed coordinate."""

    name = "verify"
    REPEATS = 4  # of VERIFY_MIX in the pool

    def __init__(self, seed, root):
        super().__init__(seed, root)
        for c in range(self.REPEATS):
            for sizes, count in VERIFY_MIX:
                for j in range(count):
                    # every repeat has the same labels, except that a
                    # pattern with one case per repeat alternates
                    positive = (j + (c if count == 1 else 0)) % 2 == 0
                    self.cases.append(self._case(sizes, j, positive))
        self.order = _interleaved([self.kind(case) for case in self.cases])

    def _case(self, sizes, slot, positive):
        rng = self.rng
        spectrum = _spaced_spectrum(sizes, float(rng.uniform(0.5, 2.0)), rng)
        model = regfman.standard_model(spectrum, 4)
        block_sizes = [m for _, m in model.blocks]
        sp = model.space
        offsets = np.cumsum([0] + block_sizes[:-1])
        eta = [
            _block_family(sp, off, m, _FAMILIES[m][(2 * (slot // 2) + b) % len(_FAMILIES[m])],
                          (slot // 2 + b) % 2 == 0, rng)
            for b, (off, m) in enumerate(zip(offsets, block_sizes))
        ]
        if not positive:
            # a top entry gains a term in another block's coordinate or in a
            # non-top coordinate of its own block
            d = float(rng.uniform(0.3, 1.0))
            a = (slot // 2) % len(block_sizes)
            m = block_sizes[a]
            if (slot // 2) % 2 == 0:
                b = (a + 1 + int(rng.integers(len(block_sizes) - 1))) % len(block_sizes)
                var = offsets[b] + int(rng.integers(block_sizes[b]))
            else:
                var = offsets[a] + int(rng.integers(max(m - 1, 1)))
            eta[a][m - 1] = eta[a][m - 1] + sp.variable(int(var)).scale(d)
        metric = regfman.InvariantMetric(block_sizes, eta)
        return (tuple(sizes), positive, model, metric)

    def kind(self, case):
        return case[0]

    def run(self, case):
        _, _, model, metric = case
        axioms = regfman.check_fmanifold(model)
        verdict = regfman.frobenius_verdict(metric, model, run_oracle=True)
        return axioms, verdict

    def check(self, case, result) -> Outcome:
        positive = case[1]
        axioms, verdict = result
        reasons = []
        if axioms.max_value() > 1e-9:
            reasons.append("fmanifold_residual")
        oracle_ok = verdict.oracle.curvature.value <= 1e-8 and verdict.oracle.unit_parallel.value <= 1e-8
        if verdict.passed != positive:
            reasons.append("wrong_verdict")
        if verdict.passed != oracle_ok:
            reasons.append("oracle_disagrees")
        # a standard model is an F-manifold; a perturbed metric is not Frobenius
        wrong = bool(reasons) and (
            "fmanifold_residual" in reasons or (not positive and (verdict.passed or oracle_ok))
        )
        return Outcome(reasons, wrong)


# -- extend --------------------------------------------------------------------------------
#
# Why: initial_condition_extend is the paper's main result and crosses every
# layer: the malgrange chart and frame expansion, the saito axioms,
# germ_isomorphism and the full verdict with the oracle.  About a third of
# the time is Jet.compose, which verify never calls.
# Ranges of the timed pool: n = 3 at K = 4-5 as one block or 2-3 blocks
# with eigenvalue spacing 1-4, and n = 4 at K = 4 as one block; weights
# {2, 2.5, 3} by turns, Gram condition <= GRAM_CONDITION, verdict
# tolerance 1e-8 (acceptance criterion 9).  Every operation of a timed run
# must pass, so the pool holds only ranges on which no extension failed
# over many seeds, with verdict residuals far below the tolerance.  The
# known defects of ROADMAP item 4 lie outside them: wide spacings make
# fmanifold_on_chart raise ChartDegeneracyError ([2,2] at spacing 4 always
# does), and small spacings, n = 4 multi-block spectra and ill-conditioned
# Gram matrices (above all at n = 4, K = 5) push verdict residuals above the
# tolerance.  Those ranges are EXTEND_DEFECTS: the traced run runs them
# once and counts their failures.  [1,1,1] at spacing 1 and [3,1] at
# spacing 2 passed, but with residuals within 6x of the tolerance, so they
# are left out of both.  The fast n=3, K=4 cases make about three quarters
# of the operations, so that the median falls well inside their band.

EXTEND_MIX = (
    # (block sizes, K, eigenvalue spacing) per repeat; fastest first
    *[((3,), 4, None)] * 6,
    *[((2, 1), 4, h) for h in (1.0, 2.0, 4.0) * 2],
    *[((1, 1, 1), 4, h) for h in (1.5, 2.0) * 2],
    ((3,), 5, None),
    ((2, 1), 5, 2.0),
    ((1, 1, 1), 5, 2.0),
    *[((4,), 4, None)] * 3,
)

# known-defect ranges, each at every weight, with Gram condition up to
# WIDE_GRAM_CONDITION; the failure they showed most often
EXTEND_DEFECTS = (
    ((2, 2), 4, 4.0),  # chart_degeneracy, always
    ((1, 1, 1), 4, 4.0),  # chart_degeneracy at a wide Gram condition
    ((2, 1, 1), 4, 0.5),  # wrong_verdict, construction_inconsistency
    ((1, 1, 1), 5, 0.5),  # wrong_verdict
    ((3, 1), 4, 1.0),  # wrong_verdict
    ((2, 2), 4, 1.0),  # wrong_verdict
    ((4,), 5, None),  # wrong_verdict at a wide Gram condition
)


class ExtendWorkload(Workload):
    """Spectrum, order, spacing and weight are fixed by a case's place in
    the mix, and every repeat of the mix is built alike; the seed draws the
    base eigenvalue and the moments."""

    name = "extend"
    REPEATS = 3  # of EXTEND_MIX in the pool
    TOLERANCE = 1e-8

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.seed = seed
        for _ in range(self.REPEATS):
            for i, (sizes, k, spacing) in enumerate(EXTEND_MIX):
                self.cases.append(self._case(sizes, k, spacing, WEIGHTS[i % len(WEIGHTS)], self.rng, GRAM_CONDITION))
        self.order = _interleaved([self.kind(case) for case in self.cases])

    @staticmethod
    def _case(sizes, k, spacing, weight, rng, max_condition):
        spectrum = _spaced_spectrum(sizes, spacing or 0.0, rng)
        return (sizes, k, spacing, admissible_data(spectrum, k, weight, rng, max_condition))

    def kind(self, case):
        return case[:3]

    def defect_cases(self):
        # drawn apart from the pool, so that the timed inputs do not depend
        # on whether the probe runs
        rng = np.random.default_rng([self.seed, 1])
        return [
            self._case(sizes, k, spacing, weight, rng, WIDE_GRAM_CONDITION)
            for sizes, k, spacing in EXTEND_DEFECTS
            for weight in WEIGHTS
        ]

    def run(self, case):
        return regfman.initial_condition_extend(case[3], tolerance=self.TOLERANCE)

    def check(self, case, result) -> Outcome:
        reasons = []
        if result.report["origin_match"].value > 1e-9:
            reasons.append("origin_match")
        if result.report["euler_derivative_origin"].value > 1e-7:
            reasons.append("euler_law")
        if not result.verdict.passed:
            reasons.append("wrong_verdict")
        return Outcome(reasons)


WORKLOADS = {w.name: w for w in (DocsWorkload, VerifyWorkload, ExtendWorkload)}


def attempt(workload: Workload, case):
    """Run one operation; returns (result or None, Outcome-or-None).  The
    exception path is classified here, the result path by the caller's
    check so that it stays outside the timed region."""
    try:
        return workload.run(case), None
    except Exception as exc:  # every failure is counted, none is filtered
        return None, _exception_outcome(exc)
