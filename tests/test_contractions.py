"""The JetArray contraction kernel against sums built from loop-jet
products (the object kernel of ``loop_oracles``), and the contraction-form
checks against their nested-loop references."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles
from loop_oracles import LoopJet, loop_jets, to_array
from regfman import frob, jets
from regfman.fman import (
    FManifoldModel,
    check_fmanifold,
    check_frame_brackets,
    check_symmetry,
    check_symmetry_brackets,
    mult_by_euler,
    standard_block,
    standard_model,
    symmetry_basis,
)
from regfman.frob import (
    InvariantMetric,
    check_euler_rescaling,
    check_gamma,
    check_unit_flat,
    covector_product,
    darboux_egoroff_matrix,
    darboux_egoroff_residual,
    epsilon_metric,
    frobenius_verdict,
    gamma_operator,
    invert_oneform,
    levi_civita_curvature,
    metric_from_psi,
    psi_from_metric,
    structure_brackets,
)
from regfman.jets import Jet, JetArray, JetMatrix, JetSpace, contract, jet_space
from regfman.malgrange import DeformationSpec, canonical_connection, fmanifold_on_chart, integrate_chart
from regfman.regend import jordan_block
from regfman.reports import DEFAULT_TOLERANCE
from regfman.saito import (
    BirkhoffConnection,
    SaitoBundle,
    birkhoff_flatness,
    birkhoff_to_saito,
    check_saito_axioms,
    check_saito_metric_axioms,
    fmanifold_from_saito,
    frobenius_from_saito,
)

# every contraction spec that fman and frob use
SPECS = (
    "i,j->ij",
    "ij,ijk->k",
    "i,ijk->kj",
    "v,vbk->bk",
    "bv,vk->bk",
    "bi,ick->bck",
    "bcj,jk->bck",
    "i,ibk->bk",
    "bj,jk->bk",
    "i,icdl->cdl",
    "cdi,il->cdl",
    "ci,idl->cdl",
    "di,cil->cdl",
    "cdj,jl->cdl",
    "kts,s->kt",
    "kj,kt->tj",
    "rx,jxc->jrc",
    "jrx,xc->jrc",
    "ik,kj->ij",
    "ki,kj->ij",
    "k,ikj->ij",
    "lk,ijk->ijl",
    "ml,jkm->jkl",
    "jml,km->jkl",
    "ijk,j->ik",
    "jlk,l->kj",
    "ai,ibk->abk",
    "bj,ajk->abk",
    "av,vbk->abk",
    "ijl,lk->ijk",
    "q,kl->qkl",
    "ijkq,qkl->ijl",
    "iv,v->i",
    "kq,q->k",
    "k,kij->ij",
    "j,ajl->al",
    "i,ik->k",
    "j,ijk->ik",
    "i,ik->ik",
    "abl,lk->abk",
    "ij,ij->",
    "tp,p->t",
    "p,p->p",
    "p,p->",
    "v,vk->k",
    "v,vj->j",
    "kj,j->k",
    "ij,j->i",
)


# -- random operands ------------------------------------------------------------


KINDS = ("zero", "constant", "linear", "dense")


def _random_jet(sp, rng, kinds=KINDS, eff=None) -> Jet:
    """A zero, constant, single-variable or dense jet (one of ``kinds``)
    trusted to ``eff`` or to a random effective order, sometimes below
    K - 1."""
    kind = kinds[int(rng.integers(len(kinds)))]
    c = np.zeros(sp.size, dtype=np.complex128)
    if kind == "constant":
        c[0] = rng.standard_normal() + 1j * rng.standard_normal()
    elif kind == "linear":
        v = rng.integers(sp.num_vars)
        for idx, e in enumerate(sp.exponents):
            if sum(e) == e[v]:
                c[idx] = rng.standard_normal()
    elif kind == "dense":
        c = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
    return Jet.from_coeffs(sp, c, int(rng.integers(-1, sp.order + 1)) if eff is None else eff)


def _loop_entries(x: JetArray) -> np.ndarray:
    """The entries of ``x`` as loop jets, an object array of its shape."""
    return np.array(loop_jets(x), dtype=object)


def _random_operand(sp, shape, rng, kinds=KINDS, eff=None):
    """A jet array of :func:`_random_jet` entries, and its entries as loop jets."""
    jets = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        jets[idx] = _random_jet(sp, rng, kinds, eff)
    array = JetArray.from_jets(jets.tolist())
    return _loop_entries(array), array


def _reference(spec, a, b, sp, skip_zeros):
    """The contraction as a sum of loop-jet products, in loop order; with
    ``skip_zeros`` a vanishing factor drops its term."""
    inputs, out = spec.split("->")
    la, lb = inputs.split(",")
    dims = dict(zip(la, a.shape)) | dict(zip(lb, b.shape))
    summed = [x for x in la if x not in out]
    result = np.empty(tuple(dims[x] for x in out), dtype=object)
    for o in np.ndindex(*result.shape):
        at = dict(zip(out, o))
        acc = None
        for s in itertools.product(*(range(dims[x]) for x in summed)):
            at.update(zip(summed, s))
            x, y = a[tuple(at[q] for q in la)], b[tuple(at[q] for q in lb)]
            if skip_zeros and (x.is_zero() or y.is_zero()):
                continue
            term = x * y
            acc = term if acc is None else acc + term
        result[o] = LoopJet.zero(sp) if acc is None else acc
    return result


def _assert_same_jets(got: JetArray, want, scale=1.0):
    assert got.shape == want.shape
    for idx in np.ndindex(*want.shape):
        g, w = got[idx], want[idx]
        assert g.shape == ()
        assert g.eff_order() == w.eff_order, idx
        # truncation: the same coefficients vanish above the effective order
        top = g.space.degrees > max(w.eff_order, 0)
        assert not g.coeffs[top].any() and not w.coeffs[top].any()
        assert np.abs(g.coeffs - w.coeffs).max() <= 1e-12 * scale, idx


def _operands(spec, sp, rng, kinds_a, kinds_b, eff_a=None, eff_b=None):
    dims = {x: int(rng.integers(1, 4)) for x in sorted(set(spec) - set(",->"))}
    la, lb = spec.split("->")[0].split(",")
    a_jets, a = _random_operand(sp, tuple(dims[x] for x in la), rng, kinds_a, eff_a)
    b_jets, b = _random_operand(sp, tuple(dims[x] for x in lb), rng, kinds_b, eff_b)
    return a_jets, a, b_jets, b


def _check_against_jet_sums(spec, sp, a_jets, a, b_jets, b, exact=False):
    if exact:
        a, b = a.exact_zeros(), b.exact_zeros()
    want = _reference(spec, a_jets, b_jets, sp, skip_zeros=exact)
    scale = max(1.0, float(np.abs(a.coeffs).max()) * float(np.abs(b.coeffs).max()))
    _assert_same_jets(contract(spec, a, b), want, scale * sp.size)


class TestKernel:
    @settings(max_examples=120, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        num_vars=st.integers(1, 3),
        order=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        exact=st.booleans(),
    )
    def test_contract_matches_jet_sums(self, spec, num_vars, order, seed, exact):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        _check_against_jet_sums(spec, sp, *_operands(spec, sp, rng, KINDS, KINDS), exact)

    @settings(max_examples=40, deadline=None)
    @given(num_vars=st.integers(1, 3), order=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_entrywise_operations(self, num_vars, order, seed):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        x_jets, x = _random_operand(sp, (2, 3), rng)
        y_jets, y = _random_operand(sp, (2, 3), rng)
        _assert_same_jets(x + y, x_jets + y_jets)
        _assert_same_jets(x - y, x_jets - y_jets)
        _assert_same_jets(-x, -x_jets)
        _assert_same_jets(x.scale(0.5j), np.vectorize(lambda j: j.scale(0.5j), otypes=[object])(x_jets))
        grad = x.grad()
        for v in range(num_vars):
            want = np.vectorize(lambda j: j.partial(v), otypes=[object])(x_jets)
            _assert_same_jets(x.partial(v), want)
            _assert_same_jets(grad[v], want)
        if (x.eff < 0).any():
            with pytest.raises(ValueError):
                x.residual_norm()
        else:
            assert x.residual_norm() == max(j.residual_norm() for j in x_jets.flat)

    def test_pair_table_is_built_lazily(self):
        sp = JetSpace(5, 3)
        assert "_cauchy" not in vars(sp)
        a = JetArray.from_jets([sp.variable(0) + sp.constant(1.0), sp.variable(1)])
        contract("i,j->ij", a, a)
        assert "_cauchy" in vars(sp)

    def test_full_index_returns_jet_and_exact_zeros_are_skipped(self):
        sp = jet_space(2, 3)
        low, one = sp.zero().capped(1), sp.constant(1.0)
        arr = JetArray.from_jets([[low, one], [one, sp.variable(0)]])
        assert arr[0][1].shape == () and arr[0, 1].shape == ()
        ones = JetArray.from_jets([one, one])
        # a zero trusted to order 1 lowers the product's order ...
        assert contract("ij,j->i", arr, ones)[0].eff_order() == 1
        # ... unless it is an exact zero
        assert contract("ij,j->i", arr.exact_zeros(), ones)[0].eff_order() == sp.order


# -- the paths of the kernel ---------------------------------------------------------

ORDER_KINDS = ("uniform", "mixed", "exact")


def _random_orders(shape, order, kind, rng):
    """Effective orders of one operand: all exact zeros, or one order or
    random orders from -1 to the jet order, with some exact zeros."""
    if kind == "exact":
        return np.full(shape, jets._EXACT)
    if kind == "uniform":
        eff = np.full(shape, int(rng.integers(-1, order + 1)))
    else:
        eff = rng.integers(-1, order + 1, shape)
    eff[rng.random(shape) < rng.uniform(0.0, 0.5)] = jets._EXACT
    return eff


def _pair_table_orders(ea, eb, order):
    """The minimum effective order over the summed pairs, from the whole
    (g, m, s, n) table of pair orders with exact-zero pairs left out."""
    pair = np.minimum(ea[:, :, :, None], eb[:, None, :, :])
    pair[(ea > order)[:, :, :, None] | (eb > order)[:, None, :, :]] = jets._EXACT
    return np.minimum(pair.min(axis=2), order)


GENERAL = ("zero", "constant", "dense")


class TestKernelPaths:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        num_vars=st.integers(1, 3),
        order=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        side=st.sampled_from(("left", "right", "both")),
        exact=st.booleans(),
    )
    def test_constant_operand_scales_its_partner(self, spec, num_vars, order, seed, side, exact):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        constant = ("zero", "constant")
        kinds_a = GENERAL if side == "right" else constant
        kinds_b = GENERAL if side == "left" else constant
        _check_against_jet_sums(spec, sp, *_operands(spec, sp, rng, kinds_a, kinds_b), exact)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        num_vars=st.integers(1, 3),
        order=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        exact=st.booleans(),
    )
    def test_mixed_constant_and_general_entries(self, spec, num_vars, order, seed, exact):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        _check_against_jet_sums(spec, sp, *_operands(spec, sp, rng, GENERAL, ("constant", "dense")), exact)

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        num_vars=st.integers(1, 3),
        order=st.integers(0, 4),
        kinds=st.tuples(st.sampled_from(ORDER_KINDS), st.sampled_from(ORDER_KINDS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_order_path_matches_the_pair_table(self, spec, num_vars, order, kinds, seed):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        dims = {x: int(rng.integers(1, 4)) for x in sorted(set(spec) - set(",->"))}
        labels = spec.split("->")[0].split(",")
        operands = []
        for la, kind in zip(labels, kinds):
            eff = _random_orders(tuple(dims[x] for x in la), order, kind, rng)
            entries = np.empty(eff.shape, dtype=object)
            for idx in np.ndindex(*eff.shape):
                exact = eff[idx] > order
                entries[idx] = sp.zero() if exact else _random_jet(sp, rng, ("dense",), int(eff[idx]))
            array = JetArray.from_jets(entries.tolist())
            operands += [_loop_entries(array), array.exact_zeros()]
        a_jets, a, b_jets, b = operands
        perm_a, perm_b, (G, M, S, N), gmn, perm_out = jets._plan(spec, a.shape, b.shape)
        # the operands again with the orders a gradient gives an exact zero
        lowered = [JetArray._raw(sp, x._stored, np.where(x.eff > order, x.eff - 1, x.eff)) for x in (a, b)]
        for x, y in ((a, b), (lowered[0], b), (a, lowered[1])):
            # the kernel's (g, m, s) and (g, s, n) views of the orders
            ea = x.eff.transpose(perm_a).reshape(G, M, S)
            eb = y.eff.transpose(perm_b).reshape(G, S, N)
            want = _pair_table_orders(ea, eb, order)
            assert np.array_equal(jets._contract_eff(ea, eb, order), want)
            # one order in each operand takes contract's own path
            assert np.array_equal(contract(spec, x, y).eff, want.reshape(gmn).transpose(perm_out))
        _check_against_jet_sums(spec, sp, a_jets, a, b_jets, b, exact=True)

    @pytest.mark.parametrize("eff", range(-1, 5))
    def test_effective_orders_from_minus_one_to_the_order(self, eff):
        # truncation keeps the constant term of an entry trusted to order -1
        rng = np.random.default_rng(eff + 7)
        sp = jet_space(2, 4)
        for spec in ("ik,kj->ij", "i,ijk->kj", "bi,ick->bck", "k,k->"):
            for kinds_a, kinds_b in ((("dense",), GENERAL), (("constant",), ("dense",)), (("dense",), ("constant",))):
                for eff_b in (None, eff):
                    _check_against_jet_sums(spec, sp, *_operands(spec, sp, rng, kinds_a, kinds_b, eff, eff_b))

    @pytest.mark.parametrize("chunk", [1, 5, 40, 1 << 14])
    @pytest.mark.parametrize("wide", [1, 1 << 20])
    def test_chunks_of_target_groups(self, monkeypatch, chunk, wide):
        # a budget of one entry takes one target group at a time; `wide`
        # switches between row sums and reduceat for the pairs of a target
        monkeypatch.setattr(jets, "_CHUNK", chunk)
        monkeypatch.setattr(jets, "_WIDE", wide)
        rng = np.random.default_rng(chunk)
        sp = jet_space(3, 3)
        for spec in ("ik,kj->ij", "iab,jbc->ijac", "i,j->ij", "k,k->", "ij,ijk->k"):
            _check_against_jet_sums(spec, sp, *_operands(spec, sp, rng, ("dense",), ("dense",)))
            _check_against_jet_sums(spec, sp, *_operands(spec, sp, rng, ("dense",), GENERAL), exact=True)

    def test_repeated_call_reuses_the_pair_table(self):
        sp = JetSpace(3, 3)
        rng = np.random.default_rng(5)
        a_jets, a = _random_operand(sp, (2, 3), rng, ("dense",), 3)
        b_jets, b = _random_operand(sp, (3, 2), rng, ("dense",), 3)
        first = contract("ik,kj->ij", a, b)
        ((key, table),) = sp._pair_tables.items()
        again = contract("ik,kj->ij", a, b)
        assert np.array_equal(again.coeffs, first.coeffs)
        # other values on the same supports use the same table
        c_jets, c = _random_operand(sp, (2, 3), rng, ("dense",), 3)
        _check_against_jet_sums("ik,kj->ij", sp, c_jets, c, b_jets, b)
        assert list(sp._pair_tables) == [key] and sp._pair_tables[key] is table

    def test_pair_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(jets, "_PAIR_CACHE", 3)
        sp = JetSpace(3, 3)
        linear = [sp.variable(v) + sp.constant(1.0) for v in range(3)]
        sizes = []
        for u in range(3):
            for v in range(3):
                x, y = linear[u], linear[v] * linear[v]
                got = contract("i,i->", JetArray.from_jets([x]), JetArray.from_jets([y]))
                assert np.abs(got.coeffs - (x * y).coeffs).max() <= 1e-14
                sizes.append(len(sp._pair_tables))
        assert max(sizes) == 3 and sizes[-1] == 3


# -- stored width ----------------------------------------------------------------------
#
# A jet array stores a prefix of its coefficient columns; the columns past it
# are zero.  Every operation on narrow operands must give the values of the
# same data stored at full width (equal as values, the sign of a zero aside).


def _stored_width(x: JetArray) -> int:
    return x._stored.shape[-1]


def _narrow_operand(sp, shape, rng, kinds=("zero", "constant", "sparse", "dense"), exact=False):
    """A jet array stored at a random width and its twin stored at full
    width.  Each entry is zero, constant, or random on the stored prefix
    (``sparse`` zeroes some of it), trusted to a random effective order."""
    width = int(rng.integers(1, sp.size + 1))
    full = np.zeros(shape + (sp.size,), dtype=np.complex128)
    for idx in np.ndindex(*shape):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "constant":
            full[idx][0] = _complex(rng, ())
        elif kind in ("sparse", "dense"):
            full[idx][:width] = _complex(rng, width) * (rng.random(width) < (0.6 if kind == "sparse" else 1.0))
    eff = rng.integers(-1, sp.order + 1, size=shape)
    narrow = JetArray(sp, full[..., :width].copy(), eff.copy())
    padded = JetArray(sp, full, eff.copy())
    assert _stored_width(narrow) == width and _stored_width(padded) == sp.size
    if exact:
        return narrow.exact_zeros(), padded.exact_zeros()
    return narrow, padded


def _assert_bit_equal(narrow, padded):
    assert isinstance(narrow, JetArray) and narrow.shape == padded.shape
    assert np.array_equal(narrow.eff, padded.eff)
    assert narrow.coeffs.shape == padded.coeffs.shape
    assert np.array_equal(narrow.coeffs, padded.coeffs)


def _contract_operands(spec, sp, rng, path, exact):
    dims = {x: int(rng.integers(1, 4)) for x in sorted(set(spec) - set(",->"))}
    la, lb = spec.split("->")[0].split(",")
    general = ("zero", "constant", "sparse", "dense")
    kinds_a = ("zero", "constant") if path == "scaling" else general
    a = _narrow_operand(sp, tuple(dims[x] for x in la), rng, kinds_a, exact)
    b = _narrow_operand(sp, tuple(dims[x] for x in lb), rng, general, exact)
    return a, b


class TestStoredWidth:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        num_vars=st.integers(1, 3),
        order=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        path=st.sampled_from(("scaling", "narrow pairs", "wide pairs")),
        exact=st.booleans(),
    )
    def test_contract_paths_match_full_width(self, spec, num_vars, order, seed, path, exact):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        (a, a_full), (b, b_full) = _contract_operands(spec, sp, rng, path, exact)
        with pytest.MonkeyPatch.context() as mp:
            # every output block counts as wide, or none does
            mp.setattr(jets, "_WIDE", 1 if path == "wide pairs" else 1 << 20)
            want = contract(spec, a_full, b_full)
            _assert_bit_equal(contract(spec, a, b), want)
            _assert_bit_equal(contract(spec, a, b_full), want)
            _assert_bit_equal(contract(spec, a_full, b), want)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        num_vars=st.integers(1, 3),
        order=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        exact=st.booleans(),
    )
    def test_no_column_above_one_order_is_formed(self, spec, num_vars, order, seed, exact):
        # operands trusted to one order below K store no column above it
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        eff = int(rng.integers(-1, order))
        a_jets, a, b_jets, b = _operands(spec, sp, rng, ("dense",), GENERAL, eff, eff)
        got = contract(spec, a.exact_zeros(), b.exact_zeros()) if exact else contract(spec, a, b)
        assert _stored_width(got) <= sp._degree_ends[max(eff, 0)]
        _check_against_jet_sums(spec, sp, a_jets, a, b_jets, b, exact)

    @settings(max_examples=60, deadline=None)
    @given(num_vars=st.integers(1, 3), order=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_entrywise_operations_match_full_width(self, num_vars, order, seed):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        x, x_full = _narrow_operand(sp, (2, 3), rng)
        y, y_full = _narrow_operand(sp, (2, 3), rng)
        _assert_bit_equal(x + y, x_full + y_full)
        _assert_bit_equal(x - y, x_full - y_full)
        _assert_bit_equal(y - x, y_full - x_full)
        _assert_bit_equal(-x, -x_full)
        _assert_bit_equal(x.scale(0.5j), x_full.scale(0.5j))
        _assert_bit_equal(x.exact_zeros(), x_full.exact_zeros())
        cap = int(rng.integers(-1, order + 1))
        _assert_bit_equal(x.capped(cap), x_full.capped(cap))
        _assert_bit_equal(x.grad(), x_full.grad())
        for v in range(num_vars):
            _assert_bit_equal(x.partial(v), x_full.partial(v))
            _assert_bit_equal(x.integrate(v), x_full.integrate(v))
        assert np.array_equal(x.constant_term(), x_full.constant_term())
        if (x.eff >= 0).all():
            assert np.array_equal(x.residual_norms(), x_full.residual_norms())
        _assert_bit_equal(JetArray.stack([x, y, x]), JetArray.stack([x_full, y_full, x_full]))
        _assert_bit_equal(x.reshape(3, 2), x_full.reshape(3, 2))
        _assert_bit_equal(x.transpose(1, 0), x_full.transpose(1, 0))
        _assert_bit_equal(x[1], x_full[1])
        _assert_bit_equal(x[:, 1:], x_full[:, 1:])
        _assert_bit_equal(x[1, 2], x_full[1, 2])

    @settings(max_examples=40, deadline=None)
    @given(num_vars=st.integers(1, 3), order=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_constructors_match_full_width(self, num_vars, order, seed):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        # __init__ truncates the stored prefix as it truncates the full width
        x, x_full = _narrow_operand(sp, (3,), rng)
        width = _stored_width(x)
        eff = rng.integers(-1, order + 1, size=3)
        _assert_bit_equal(
            JetArray(sp, x.coeffs[:, :width].copy(), eff.copy()), JetArray(sp, x.coeffs.copy(), eff.copy())
        )
        # from_jets stores constant entries one column wide
        entries = [_random_jet(sp, rng) for _ in range(4)]
        stacked = JetArray.from_jets(entries)
        want = np.array([j.coeffs for j in entries])
        assert _stored_width(stacked) == (sp.size if want[:, 1:].any() else 1)
        _assert_bit_equal(stacked, JetArray(sp, want, np.array([j.eff_order() for j in entries])))
        values = _complex(rng, (2, 2))
        full = np.zeros((2, 2, sp.size), dtype=np.complex128)
        full[..., 0] = values
        _assert_bit_equal(JetArray.constant(sp, values), JetArray(sp, full, np.full((2, 2), order)))

    @settings(max_examples=30, deadline=None)
    @given(num_vars=st.integers(1, 3), order=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_inverse_and_substitution_match_full_width(self, num_vars, order, seed):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        x, x_full = _narrow_operand(sp, (3, 3), rng, ("zero", "constant", "sparse"))
        shift = JetArray.constant(sp, 8.0 * np.eye(3))
        _assert_bit_equal((x + shift).inverse(), (x_full + shift).inverse())
        # substitutions fix the origin: linear ones, and dense ones less
        # their constant term
        subs = [_random_jet(sp, rng, ("zero", "linear", "dense"), order) for _ in range(num_vars)]
        subs = [s - sp.constant(s.constant_term()) for s in subs]
        sub = jets.Substitution(sp, JetArray.from_jets(subs))
        _assert_bit_equal(sub(x), sub(x_full))

    def test_coeffs_is_the_read_only_full_width_array(self):
        rng = np.random.default_rng(11)
        sp = jet_space(3, 3)
        x = JetArray(sp, _complex(rng, (2, 2, 4)), np.full((2, 2), sp.order))
        full = x.coeffs
        assert full.shape == (2, 2, sp.size) and not full.flags.writeable
        assert np.array_equal(full[..., :4], x._stored) and not full[..., 4:].any()
        assert x.coeffs is full
        entry = x[1, 0]
        assert entry.shape == () and entry.coeffs.shape == (sp.size,)
        assert np.array_equal(entry.coeffs, full[1, 0])


# -- carried bookkeeping -----------------------------------------------------------
#
# A jet array carries its order range and its support; the operation that
# builds it sets them when it knows them.  Whatever an operation carries must
# be what a fresh computation from ``eff`` and the stored columns gives.


def _recomputed_orders(x: JetArray):
    order = x.space.order
    live = x.eff[x.eff <= order]
    if not live.size:
        return order, order, bool(x.eff.size)
    return int(live.min()), int(live.max()), bool(live.size < x.eff.size)


def _recomputed_support(x: JetArray):
    c = x._stored
    mask = c.reshape(-1, c.shape[-1]).any(axis=0)
    used = np.flatnonzero(mask)
    return mask, int(used[-1]) + 1 if used.size else 0


def _assert_bookkeeping(x):
    """The carried order range and support of ``x`` (a jet array or a
    sequence of them) are the recomputed ones, and so are the ones it
    computes on first use."""
    if isinstance(x, (list, tuple)):
        for y in x:
            _assert_bookkeeping(y)
        return
    for known in (x._orders, x._order_range()):
        assert known is None or known == _recomputed_orders(x)
    for known in (x._used, (x._support(x.space.size), x._used)[1]):
        if known is not None:
            mask, width = _recomputed_support(x)
            assert np.array_equal(known[0], mask) and known[1] == width


def _bookkept(x: JetArray, known: bool) -> JetArray:
    """``x``, with its order range and support computed when ``known``."""
    if known:
        x._order_range()
        x._support(x.space.size)
    return x


def _every_operation(x: JetArray, y: JetArray, rng):
    """Every operation that builds a jet array, on operands of shape (2, 3)."""
    sp = x.space
    cap = int(rng.integers(-1, sp.order + 2))
    out = [
        x + y, x - y, y - x, x * y, -x, x.scale(0), x.scale(2.0), x.scale(0.5j), x.scale(1e-300),
        x.capped(cap), x.exact_zeros(), x.exact_zeros().capped(cap), x.grad(), x.exact_zeros().grad(),
        x.reshape(3, 2), x.reshape(6), x.transpose(1, 0), x[1], x[:, 1:], x[:0], x[1:, :2],
        x.put(1, y[0]), x.put(slice(0, 2), y), JetArray.stack([x, y, x]), JetArray.stack([x, x]), x[1, 2], x[0][1],
        JetArray.constant(sp, _complex(rng, (2, 3))), JetArray.constant(sp, np.zeros((2, 0))),
        JetArray.from_coeffs(sp, x.coeffs, x.eff), JetArray(sp, x.coeffs.copy(), x.eff[::-1].copy()),
        contract("ij,ij->i", x, y), contract("ij,kj->ik", x, y.exact_zeros()),
        contract("ij,ij->ij", x.exact_zeros(), y.exact_zeros()), contract("i,j->ij", x[0], y[1]),
    ]
    for v in range(sp.num_vars):
        out += [x.partial(v), x.integrate(v), x.exact_zeros().integrate(v), x.exact_zeros().partial(v)]
    square = contract("ij,ik->jk", x, y) + JetArray.constant(sp, 1e3 * np.ones((3, 3)) + 1e3 * np.eye(3))
    identity = JetArray.from_jets([sp.variable(v) for v in range(sp.num_vars)])
    out += [square.inverse(), square.invert(), jets.Substitution(sp, identity)(x)]
    return out


class TestBookkeeping:
    @settings(max_examples=60, deadline=None)
    @given(
        num_vars=st.integers(1, 3),
        order=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        orders=st.sampled_from(("uniform", "mixed")),
        exact=st.booleans(),
        known=st.booleans(),
    )
    def test_carried_bookkeeping_is_the_recomputed_one(self, num_vars, order, seed, orders, exact, known):
        rng = np.random.default_rng(seed)
        sp = jet_space(num_vars, order)
        x, _ = _narrow_operand(sp, (2, 3), rng, exact=exact)
        y, _ = _narrow_operand(sp, (2, 3), rng)
        if orders == "uniform":
            eff = int(rng.integers(-1, order + 1))
            x = JetArray(sp, x._stored.copy(), np.where(x.eff > order, x.eff, eff))
            y = JetArray(sp, y._stored.copy(), np.full(y.shape, eff))
        x, y = _bookkept(JetArray._raw(sp, x._stored, x.eff), known), _bookkept(y, known)
        first = _every_operation(x, y, rng)
        _assert_bookkeeping(first)
        # the outputs again as operands, with what they carried
        for z in first:
            if isinstance(z, JetArray) and z.shape == (2, 3):
                _assert_bookkeeping(_every_operation(z, y, rng))

    @pytest.mark.parametrize("eff", range(-1, 4))
    def test_constructor_truncates_entry_by_entry_next_to_orders_above_the_order(self, eff):
        # one order below K and one entry above it: only the others are cut
        rng = np.random.default_rng(eff + 2)
        sp = jet_space(2, 3)
        coeffs = _complex(rng, (2, 2, sp.size))
        orders = np.array([[eff, eff], [sp.order + 1, eff]])
        x = JetArray(sp, coeffs.copy(), orders)
        want = np.where(sp.degrees > np.maximum(orders, 0)[..., None], 0.0, coeffs)
        assert np.array_equal(x.coeffs, want) and x._order_range() == (eff, eff, True)

    def test_one_order_operands_never_take_the_pairwise_order_table(self, monkeypatch):
        calls = []
        pairwise = jets._contract_eff
        monkeypatch.setattr(jets, "_contract_eff", lambda *args: calls.append(1) or pairwise(*args))
        rng = np.random.default_rng(4)
        sp = jet_space(2, 3)
        for eff in range(-1, sp.order + 1):
            for spec in ("ik,kj->ij", "i,ijk->kj", "ij,ij->", "bi,ick->bck"):
                _, a, _, b = _operands(spec, sp, rng, KINDS, KINDS, eff, eff)
                contract(spec, a, b)
                contract(spec, a.exact_zeros(), b.exact_zeros())
                contract(spec, a.capped(eff - 1), b.exact_zeros())
        assert calls == []
        # mixed orders take it
        _, a = _random_operand(sp, (2, 3), rng, ("dense",), sp.order)
        _, b = _random_operand(sp, (3, 2), rng, ("dense",), sp.order)
        contract("ik,kj->ij", a.capped(1).put(0, a[0]), b)
        assert len(calls) == 1


def test_constant_data_is_stored_one_column_wide():
    model = standard_model([(0, 4), (1, 3)], 4)
    sp = model.space
    assert sp.size == 330
    c = model.structure
    assert _stored_width(c) == 1
    constant = JetArray.constant(sp, np.eye(model.dim))
    assert _stored_width(constant) == 1
    assert _stored_width(constant.grad()) == 1
    assert _stored_width(contract("ik,kj->ij", constant, constant)) == 1
    assert _stored_width(contract("bi,ick->bck", c[0], c)) == 1
    assert _stored_width(JetArray.from_jets(model.unit)) == 1


# -- the checks against their loop references ---------------------------------------

PATTERNS = ((2, 2), (3, 2), (2, 2, 1), (2, 2, 2), (3, 3), (4, 3))


def _binomial(sp, var, alpha, s):
    t = sp.variable(var).scale(s)
    out, term, c = sp.constant(1.0), sp.constant(1.0), 1.0
    for k in range(1, sp.order + 1):
        c *= (alpha - k + 1) / k
        term = term * t
        out = out + term.scale(c)
    return out


def _verify_case(sizes, positive, seed):
    """A multi-block standard model at K = 4 with a Frobenius metric built
    from per-block families, or that metric with one top entry perturbed
    by a cross-block coordinate."""
    rng = np.random.default_rng(seed)
    spectrum = [(float(i) * 1.5 + rng.uniform(-0.2, 0.2), m) for i, m in enumerate(sizes)]
    model = standard_model(spectrum, 4)
    sizes = [m for _, m in model.blocks]
    sp = model.space
    offsets = np.cumsum([0] + sizes[:-1])
    eta = []
    for b, (off, m) in enumerate(zip(offsets, sizes)):
        s = float(rng.uniform(0.3, 1.0))
        if m == 2:
            family = [sp.constant(rng.uniform(-0.5, 0.5)), _binomial(sp, off + 1, (1.0, -1.0, 0.5)[b % 3], s)]
        elif m == 3:
            family = [sp.zero(), sp.zero(), _binomial(sp, off + 2, -2.0, s)]
        else:
            family = [sp.constant(x) for x in rng.uniform(-0.5, 0.5, m - 1)] + [sp.constant(1.2)]
        eta.append(family)
    if not positive:
        var = int(offsets[1]) + int(rng.integers(sizes[1]))
        eta[0][-1] = eta[0][-1] + sp.variable(var).scale(0.6)
    return model, InvariantMetric(sizes, eta)


def _dense_case():
    """Blocks [4, 3] at K = 4 with every eta entry dense in all seven
    coordinates: no entry is zero or constant, so nothing is pruned."""
    rng = np.random.default_rng(11)
    model = standard_model([(0.0, 4), (1.3, 3)], 4)
    sp = model.space
    eta = []
    for m in (4, 3):
        family = []
        for i in range(m):
            c = 0.05 * (rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size))
            c[0] += 1.0 if i == m - 1 else 0.0
            family.append(sp.from_coeffs(c))
        eta.append(family)
    return model, InvariantMetric([4, 3], eta)


def _assert_reports_match(got, want, scale):
    assert list(got) == list(want)
    for name in want:
        assert got[name].order == want[name].order, name
        assert abs(got[name].value - want[name].value) <= 1e-12 * max(1.0, scale), name
        assert got.passes(DEFAULT_TOLERANCE) == want.passes(DEFAULT_TOLERANCE)


def _compare_frobenius_chain(model, metric):
    psi = psi_from_metric(metric)
    beta = invert_oneform(psi)
    gamma = gamma_operator(psi, beta, model)
    want_gamma = loop_oracles.gamma_general(psi, beta, model)
    scale = max(1.0, max(np.abs(j.coeffs).max() for row in want_gamma.entries for j in row))
    _assert_same_jets(
        JetArray.from_jets(gamma.matrix), np.array(want_gamma.entries, dtype=object), scale
    )
    brackets = structure_brackets(gamma, model)
    _assert_reports_match(check_gamma(gamma, psi, brackets), loop_oracles.check_gamma(gamma, psi, model), scale**2)
    _assert_reports_match(
        darboux_egoroff_residual(brackets),
        loop_oracles.darboux_egoroff_residual(gamma, model),
        scale**2,
    )

    gram = metric.gram()
    chris, want = loop_oracles.levi_civita_curvature(gram, model.unit)
    got = levi_civita_curvature(metric, model.unit)
    scale = max(1.0, max(np.abs(j.coeffs).max() for plane in chris for row in plane for j in row))
    _assert_same_jets(got.christoffel, np.array(chris, dtype=object), scale)
    _assert_reports_match(got.report(), want, scale**2)
    return gamma


@pytest.mark.parametrize("sizes", PATTERNS)
@pytest.mark.parametrize("positive", [True, False])
def test_verify_patterns_match_loops(sizes, positive):
    model, metric = _verify_case(sizes, positive, seed=len(sizes) * 10 + sizes[0])
    _assert_reports_match(check_fmanifold(model), loop_oracles.check_fmanifold(model), 1.0)
    _compare_frobenius_chain(model, metric)
    verdict = frobenius_verdict(metric, model, run_oracle=True)
    assert verdict.passed == positive


def _assert_same_floats(got, want):
    assert [(k, r.value, r.order) for k, r in got.items()] == [(k, r.value, r.order) for k, r in want.items()]


@pytest.mark.parametrize("sizes", PATTERNS)
@pytest.mark.parametrize("positive", [True, False])
def test_oracle_quadratic_terms_at_the_certified_order_change_no_float(sizes, positive):
    # the curvature and Darboux-Egoroff reports equal those of the quadratic
    # terms formed one degree higher, float for float
    model, metric = _verify_case(sizes, positive, seed=len(sizes) * 10 + sizes[0])
    got = levi_civita_curvature(metric, model.unit)
    chris, want = loop_oracles.curvature_residual(metric, model.unit)
    _assert_same_floats(got.report(), want)
    assert np.array_equal(got.christoffel.coeffs, chris.coeffs)
    psi = psi_from_metric(metric)
    brackets = structure_brackets(gamma_operator(psi, invert_oneform(psi), model), model)
    _assert_same_floats(darboux_egoroff_residual(brackets), loop_oracles.darboux_egoroff_from_brackets(brackets))


def test_dense_metric_matches_loops():
    model, metric = _dense_case()
    gamma = _compare_frobenius_chain(model, metric)
    for i, j in ((0, 6), (5, 2)):
        want = loop_oracles.darboux_egoroff_matrix(gamma, model, i, j)
        _assert_same_jets(
            JetArray.from_jets(darboux_egoroff_matrix(structure_brackets(gamma, model), i, j)),
            np.array(want.entries, dtype=object),
            10.0,
        )


@pytest.mark.parametrize("sizes", [(4, 3), (2, 2, 1)])
def test_darboux_egoroff_matrices_match_loops_entry_by_entry(sizes):
    # the perturbed metrics of test_verify_patterns_match_loops, every
    # ordered pair (i, j), i > j and i = j included
    model, metric = _verify_case(sizes, False, seed=len(sizes) * 10 + sizes[0])
    psi = psi_from_metric(metric)
    gamma = gamma_operator(psi, invert_oneform(psi), model)
    brackets = structure_brackets(gamma, model)
    scale = max(1.0, float(np.abs(gamma.matrix.coeffs).max()))
    for i, j in itertools.product(range(model.dim), repeat=2):
        want = loop_oracles.darboux_egoroff_matrix(gamma, model, i, j)
        _assert_same_jets(darboux_egoroff_matrix(brackets, i, j), np.array(want.entries, dtype=object), scale**2)


def _forged_models():
    base3 = standard_block(0.0, 3)
    mult = [list(row) for row in base3.structure]
    bad = list(mult[1][2])
    bad[0] = bad[0] + base3.space.constant(0.1)
    mult[1][2] = mult[2][1] = bad
    yield FManifoldModel(JetArray.from_jets(mult), base3.unit, base3.euler, blocks=base3.blocks)

    base2 = standard_block(0.0, 2)
    sp = base2.space
    mult = [list(row) for row in base2.structure]
    bad = list(mult[1][1])
    bad[1] = bad[1] + sp.variable(1).scale(0.1)
    mult[1][1] = bad
    yield FManifoldModel(JetArray.from_jets(mult), base2.unit, base2.euler, blocks=base2.blocks)

    mult = [list(row) for row in base2.structure]
    bad = list(mult[1][1])
    bad[1] = bad[1] + sp.constant(0.1)
    mult[1][1] = bad
    yield FManifoldModel(JetArray.from_jets(mult), base2.unit, base2.euler)


@pytest.mark.parametrize(
    "model",
    [
        *_forged_models(),
        fmanifold_on_chart(integrate_chart(DeformationSpec(jordan_block(0.0, 2), np.zeros((2, 2))), 4)),
        fmanifold_on_chart(
            integrate_chart(DeformationSpec(jordan_block(1.0, 3), np.diag([0.1, 0.0, -0.2])), 3)
        ),
    ],
)
def test_models_without_constant_multiplication_match_loops(model):
    scale = float(np.abs(model.structure.coeffs).max())
    _assert_reports_match(check_fmanifold(model), loop_oracles.check_fmanifold(model), scale**2)
    x, y = model.euler, loop_oracles.multiply(model, model.euler, model.unit)
    _assert_same_jets(
        JetArray.from_jets(model.multiply(x, to_array(y))),
        np.array(list(loop_oracles.multiply(model, x, y)), dtype=object),
        scale**3,
    )
    cols = [loop_oracles.multiply(model, model.euler, loop_oracles.basis_field(model, j)) for j in range(model.dim)]
    want = np.array([[cols[j][k] for j in range(model.dim)] for k in range(model.dim)], dtype=object)
    _assert_same_jets(JetArray.from_jets(mult_by_euler(model)), want, scale**2)


# -- brackets, symmetries and the one-form chain against their loop references ------

# (spectrum, order): standard blocks and products up to n = 5 at K = 4-6
PARITY_MODELS = (
    ([(0.3, 5)], 4),
    ([(0.1 + 0.2j, 4)], 6),
    ([(0.0, 3), (1.2, 2)], 5),
    ([(0.5, 2), (1.5, 2), (-1.0, 1)], 6),
    ([(0.0, 2), (1.0, 1)], 4),
)


def _close(got, want) -> bool:
    """|got - want| <= 1e-12 + 1e-9 |want| entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= 1e-12 + 1e-9 * np.abs(want)))


def _assert_jets_close(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.eff_order() == w.eff_order
        assert _close(g.coeffs, w.coeffs)


def _assert_reports_close(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].order == want[name].order, name
        assert _close(got[name].value, want[name].value), (name, got[name].value, want[name].value)


def _dense(sp, rng, shape, scale):
    """Jets with every coefficient nonzero, as an array of the given shape."""
    return scale * (rng.standard_normal(shape + (sp.size,)) + 1j * rng.standard_normal(shape + (sp.size,)))


def _perturbed(model, rng):
    """The model with a dense Euler field of the same constant terms, so
    the frame and symmetry identities fail by O(1) residuals."""
    tail = _dense(model.space, rng, (model.dim,), 0.2)
    tail[:, 0] = 0.0
    euler = model.euler + JetArray.from_coeffs(model.space, tail)
    return FManifoldModel(model.structure, model.unit, euler, blocks=model.blocks)


def _dense_metric(model, rng):
    """An invariant metric with dense eta entries, the top entry of each
    block near 1."""
    sizes = [m for _, m in model.blocks]
    c = _dense(model.space, rng, (model.dim,), 0.1)
    c[np.cumsum(sizes) - 1, 0] += 1.0
    return InvariantMetric(sizes, JetArray.from_coeffs(model.space, c))


@pytest.mark.parametrize("spectrum, order", [*PARITY_MODELS, ([(0.0, 2), (1.0, 1)], 2), ([(0.2, 3), (-1.0, 1)], 3)])
def test_oracle_quadratic_terms_on_dense_metrics_change_no_float(spectrum, order):
    # at K = 2 the operands stay at degree 1, where the uncapped ones are
    model = standard_model(spectrum, order)
    metric = _dense_metric(model, np.random.default_rng(order * 13 + len(spectrum)))
    _assert_same_floats(
        levi_civita_curvature(metric, model.unit).report(), loop_oracles.curvature_residual(metric, model.unit)[1]
    )
    psi = psi_from_metric(metric)
    brackets = structure_brackets(gamma_operator(psi, invert_oneform(psi), model), model)
    _assert_same_floats(darboux_egoroff_residual(brackets), loop_oracles.darboux_egoroff_from_brackets(brackets))


@pytest.mark.parametrize("spectrum, order", PARITY_MODELS)
def test_frame_brackets_and_symmetry_checks_match_loops(spectrum, order):
    rng = np.random.default_rng(order * 7 + len(spectrum))
    model = standard_model(spectrum, order)
    for m in (model, _perturbed(model, rng)):
        _assert_reports_close(check_frame_brackets(m), loop_oracles.check_frame_brackets(m))
        x = JetArray.from_coeffs(m.space, _dense(m.space, rng, (m.dim,), 0.3))
        for field in (x, m.euler):
            _assert_reports_close(check_symmetry(m, field), loop_oracles.check_symmetry(m, field))


@pytest.mark.parametrize("m, order", [(2, 4), (3, 5), (4, 6), (5, 4)])
def test_symmetry_basis_and_brackets_match_loops(m, order):
    model = standard_block(0.25, m, order)
    fields = symmetry_basis(m, order)
    want = loop_oracles.symmetry_basis(m, order)
    assert len(fields) == len(want)
    for got, w in zip(fields, want):
        _assert_jets_close(got, w)
        _assert_reports_close(check_symmetry(model, got), loop_oracles.check_symmetry(model, got))
    _assert_reports_close(check_symmetry_brackets(m, order), loop_oracles.check_symmetry_brackets(m, order))


@pytest.mark.parametrize("spectrum, order", PARITY_MODELS)
def test_one_form_chain_and_metric_laws_match_loops(spectrum, order):
    rng = np.random.default_rng(order * 11 + len(spectrum))
    model = standard_model(spectrum, order)
    metric = _dense_metric(model, rng)

    def flat(families):
        return [j for row in families for j in row]

    psi = psi_from_metric(metric)
    _assert_jets_close(psi.values, flat(loop_oracles.psi_from_metric(metric)))
    beta = invert_oneform(psi)
    _assert_jets_close(beta.values, flat(loop_oracles.invert_oneform(psi)))
    _assert_jets_close(covector_product(psi, beta).values, flat(loop_oracles.covector_product(psi, beta)))
    _assert_jets_close(metric_from_psi(psi).values, flat(loop_oracles.metric_from_psi(psi)))
    gamma = gamma_operator(psi, beta, model)
    _assert_reports_close(check_unit_flat(metric), loop_oracles.check_unit_flat(metric))
    for weight in (None, 2.5):
        got_weight, got = check_euler_rescaling(metric, model.euler, weight)
        want_weight, want = loop_oracles.check_euler_rescaling(metric, model.euler, weight)
        assert _close(got_weight, want_weight)
        _assert_reports_close(got, want)


def test_entrywise_inverse_and_square_root_match_loops():
    rng = np.random.default_rng(29)
    for num_vars, order in ((1, 6), (3, 4), (4, 5)):
        sp = jet_space(num_vars, order)
        c = _dense(sp, rng, (2, 3), 0.3)
        c[..., 0] += 2.0
        x = JetArray.from_coeffs(sp, c, rng.integers(0, order + 1, (2, 3)))
        inv, root = x.invert(), x.sqrt()
        for idx in np.ndindex(2, 3):
            entry = loop_jets(x[idx])
            _assert_jets_close([inv[idx], x[idx].invert()], [loop_oracles.invert(entry)] * 2)
            _assert_jets_close([root[idx], x[idx].sqrt()], [loop_oracles.sqrt(entry)] * 2)


def test_compute_path_makes_no_object_kernel_calls(monkeypatch, tmp_path):
    """The checks, the verdict chain, the extension and the CLI compute on
    jet arrays only: no method of a single ``Jet`` (the benchmark's kernel
    type) is called and no ``JetMatrix`` product is formed."""
    from regfman.cli import main
    from regfman.malgrange import InitialData, initial_condition_extend

    def refuse(*args, **kwargs):
        raise AssertionError("object-kernel call on the compute path")

    for name in ("__mul__", "__add__", "__sub__", "partial", "invert", "sqrt", "compose"):
        monkeypatch.setattr(Jet, name, refuse)
    monkeypatch.setattr(JetMatrix, "__matmul__", refuse)
    model = standard_model([(0.0, 2), (1.5, 2)], 4)
    assert check_fmanifold(model).passes(1e-10)
    assert check_frame_brackets(model).passes(1e-9)
    assert frobenius_verdict(epsilon_metric(model), model, run_oracle=True).passed
    block = standard_block(0.0, 3)
    for y in symmetry_basis(3):
        assert check_symmetry(block, y).passes(1e-10)
    gram = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    data = InitialData(standard_block(0.0, 2, order=3), gram, np.diag([-0.5, 0.5]) + 0.0j, 3.0)
    assert initial_condition_extend(data).verdict.passed
    for doc in sorted((Path(__file__).resolve().parent.parent / "docs" / "tasks").glob("*.json")):
        assert main(["run", str(doc), "--out", str(tmp_path / "report.json")]) == 0


def test_extension_reuses_the_verdict_oracle(monkeypatch):
    from regfman.malgrange import InitialData, initial_condition_extend

    calls = []
    original = frob.levi_civita_curvature

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(frob, "levi_civita_curvature", counted)
    # the nilpotent 2-block at weight 3: eta_0 = 0, eta_1 = 1 + t1
    model = standard_block(0.0, 2, order=3)
    gram = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    result = initial_condition_extend(InitialData(model, gram, np.diag([-0.5, 0.5]) + 0.0j, 3.0))
    assert result.verdict.passed
    assert result.report["euler_derivative_origin"].value < 1e-7
    assert len(calls) == 1


# -- parity of pruned contractions ------------------------------------------------


def test_contract_is_bit_equal_without_pruning_and_close_with_it():
    """``contract`` prunes coefficient pairs outside the supports of its
    operands.  Dense operands prune nothing, so the result is the loop-jet
    product bit for bit; a sparse operand prunes pairs, which regroups
    numpy's pairwise summation, so the result agrees to round-off."""
    sp = jet_space(4, 4)
    rng = np.random.default_rng(11)

    def dense():
        return sp.from_coeffs(rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size))

    c = sp.from_coeffs(np.where(sp.degrees <= 2, dense().coeffs, 0))
    for _ in range(20):
        a, b = dense(), dense()
        got = contract("k,k->", JetArray.from_jets([a]), JetArray.from_jets([b]))
        assert np.array_equal(got.coeffs, (loop_jets(a) * loop_jets(b)).coeffs)
        want = loop_jets(a) * loop_jets(c)
        got = contract("k,k->", JetArray.from_jets([a]), JetArray.from_jets([c]))
        assert got.eff_order() == want.eff_order
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * np.abs(want.coeffs).max()


# -- the extension pipeline on the array kernel ---------------------------------------


_CHART_SPECS = [
    (jordan_block(0.0, 2), np.zeros((2, 2)), 4),
    (jordan_block(1.0, 3), np.diag([0.1, 0.0, -0.2]), 3),
]


@pytest.mark.parametrize("b0o, binf, order", _CHART_SPECS)
def test_batched_chart_expansion_matches_the_loop(b0o, binf, order):
    from regfman.malgrange import _products, expand_in_frame

    chart = integrate_chart(DeformationSpec(b0o, binf), order)
    n = chart.spec.dim
    tangent = chart.tangent
    frame = [loop_oracles.to_matrix(t) for t in tangent]
    products = _products(tangent)
    rhs = [products[i, j] for i in range(n) for j in range(n)]
    rhs += [JetArray.constant(tangent.space, np.eye(n)), -chart.b0]
    coeffs, res = expand_in_frame(tangent, JetArray.stack(rhs))
    scale = float(np.abs(tangent.coeffs).max())
    for r, mat in enumerate(rhs):
        want, want_res = loop_oracles.expand_in_matrix_frame(frame, loop_oracles.to_matrix(mat))
        _assert_same_jets(coeffs[r], np.array(want, dtype=object), scale**2)
        assert abs(res[r] - want_res) <= 1e-12 * scale**2
    # the model is built from the same solve
    model = fmanifold_on_chart(chart)
    for i in range(n):
        for j in range(n):
            want = _loop_entries(coeffs[i * n + j])
            _assert_same_jets(JetArray.from_jets(model.structure[i][j]), want)


def test_germ_isomorphism_builds_one_table_per_order(monkeypatch):
    from regfman import jets
    from regfman.fman import germ_isomorphism

    built = []
    original = jets.Substitution.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(jets.Substitution, "__init__", counted)
    for order in (3, 4):
        chart = integrate_chart(DeformationSpec(jordan_block(1.0, 3), np.diag([0.1, 0.0, -0.2])), order)
        model = fmanifold_on_chart(chart)
        built.clear()
        rep = germ_isomorphism(model, standard_model([(-1.0, 3)], order)).report
        assert rep.passes(1e-8), rep.worst()
        assert len(built) == 1


# -- the Saito layer against its loop references --------------------------------------


def _trusted_stack(sp, shape, rng) -> JetArray:
    """:func:`_random_jet` entries trusted to a random order of at least
    one, so that their derivatives stay trustworthy."""
    jets = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        jets[idx] = Jet.from_coeffs(sp, _random_jet(sp, rng).coeffs, int(rng.integers(1, sp.order + 1)))
    return JetArray.from_jets(jets.tolist())


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _reports_match_or_raise_alike(fast, loop, args, scale):
    try:
        want = loop(*args)
    except ValueError:
        with pytest.raises(ValueError):
            fast(*args)
        return
    _assert_reports_match(fast(*args), want, scale)


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(1, 4),
    base=st.integers(1, 4),
    order=st.integers(1, 5),
    frame=st.booleans(),
    metric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_saito_checks_match_loops(rank, base, order, frame, metric, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(base, order)
    jets = [_trusted_stack(sp, (base, rank, rank), rng), _trusted_stack(sp, (rank, rank), rng)]
    if frame:
        jets.append(_trusted_stack(sp, (base, rank, rank), rng))
    rinf = _complex(rng, (rank, rank))
    g = None
    if metric:
        a = _complex(rng, (rank, rank))
        g = a @ a.T + 2 * rank * np.eye(rank)
    bundle = SaitoBundle(jets[0], jets[1], rinf, jets[2] if frame else None, g)
    scale = max(
        [1.0, float(np.abs(rinf).max())]
        + [float(np.abs(j.coeffs).max()) for j in jets]
        + ([float(np.abs(g).max())] if metric else [])
    )
    _reports_match_or_raise_alike(check_saito_axioms, loop_oracles.check_saito_axioms, (bundle,), scale**2)
    if metric:
        _assert_reports_match(
            check_saito_metric_axioms(bundle), loop_oracles.check_saito_metric_axioms(bundle), scale**2
        )
    conn = BirkhoffConnection(bundle.r0, -bundle.rinf, bundle.phi)
    _reports_match_or_raise_alike(birkhoff_flatness, loop_oracles.birkhoff_flatness, (conn,), scale**2)


def test_saito_checks_raise_like_loops_on_untrusted_derivatives():
    sp = jet_space(2, 3)
    phi = [[[Jet.from_coeffs(sp, np.ones(sp.size), 0)]], [[sp.variable(0)]]]
    bundle = SaitoBundle(JetArray.from_jets(phi), JetArray.from_jets([[sp.constant(1.0)]]), np.zeros((1, 1)))
    for check in (check_saito_axioms, loop_oracles.check_saito_axioms):
        with pytest.raises(ValueError):
            check(bundle)


def _dense_stack(sp, shape, rng, constant):
    """Dense jets with the given constant terms and small higher terms."""
    coeffs = 0.2 * _complex(rng, shape + (sp.size,))
    coeffs[..., 0] = constant
    return JetArray(sp, coeffs, np.full(shape, sp.order))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 4), order=st.integers(2, 5), frame=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_induced_structures_match_loops(n, order, frame, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(n, order)
    rinf = _complex(rng, (n, n))
    q, vecs = np.linalg.eig(rinf)
    s = vecs[:, 0]
    # Phi_i(0) s is close to the i-th unit vector, so I(0) is well conditioned
    phi0 = np.einsum("ai,b->iab", np.eye(n), s.conj()) / np.vdot(s, s) + 0.2 * _complex(rng, (n, n, n))
    phi = _dense_stack(sp, (n, n, n), rng, phi0)
    r0 = _dense_stack(sp, (n, n), rng, _complex(rng, (n, n)))
    a = _complex(rng, (n, n))
    frame_conn = _dense_stack(sp, (n, n, n), rng, _complex(rng, (n, n, n))) if frame else None
    bundle = SaitoBundle(phi, r0, rinf, frame_conn, a @ a.T + 2 * n * np.eye(n))

    model, info = fmanifold_from_saito(bundle, s)
    want_model, want_info = loop_oracles.fmanifold_from_saito(bundle, s)
    want = _loop_entries(want_model.structure)
    scale = max(1.0, max(np.abs(j.coeffs).max() for j in want.flat))
    _assert_same_jets(JetArray.from_jets(model.structure), want, scale)
    _assert_same_jets(JetArray.from_jets(model.unit), _loop_entries(want_model.unit), scale)
    _assert_same_jets(JetArray.from_jets(model.euler), _loop_entries(want_model.euler), scale**2)
    res = info["u_matches_conjugated_residue"]
    assert abs(res - want_info["u_matches_conjugated_residue"]) <= 1e-12 * scale**2 * max(1.0, res)
    assert info["spectra_match"] == want_info["spectra_match"]

    gram, rep = frobenius_from_saito(bundle, s, q[0])
    want_gram, want_rep = loop_oracles.frobenius_from_saito(bundle, s, q[0])
    gscale = max(1.0, max(np.abs(j.coeffs).max() for row in want_gram.entries for j in row))
    _assert_same_jets(gram, np.array(want_gram.entries, dtype=object), gscale)
    assert list(rep) == list(want_rep)
    for name in want_rep:
        assert rep[name].order == want_rep[name].order
        assert abs(rep[name].value - want_rep[name].value) <= 1e-12 * scale**2 * max(1.0, want_rep[name].value)


def test_section_with_zero_components_matches_loop():
    # zero components of the section drop out of I(X) = Phi_X(s), as the
    # loop's skip does; the chart's Higgs field is trusted to order K - 1
    chart = integrate_chart(DeformationSpec(jordan_block(1.0, 3), np.diag([0.1, 0.0, -0.2])), 3)
    bundle = birkhoff_to_saito(canonical_connection(chart))
    for s in ([1.0, 0.0, 0.0], [1.0, 0.0, 0.5]):
        model, info = fmanifold_from_saito(bundle, s)
        want, want_info = loop_oracles.fmanifold_from_saito(bundle, s)
        assert info["spectra_match"] and want_info["spectra_match"]
        for got_v, want_v in ((model.unit, want.unit), (model.euler, want.euler)):
            _assert_same_jets(JetArray.from_jets(got_v), _loop_entries(want_v), 10.0)
