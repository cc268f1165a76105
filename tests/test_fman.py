"""F-manifold model tests: canonical blocks, axiom checks, frame identities,
symmetries and germ isomorphisms."""

import numpy as np
import pytest

from regfman import fman, frob, jets, malgrange, saito
from regfman.errors import NoIsomorphismError, RegularityError, SpectrumError
from regfman.fman import (
    BracketConstants,
    FManifoldModel,
    canonical_frame,
    check_fmanifold,
    check_frame_brackets,
    check_symmetry,
    check_symmetry_brackets,
    eigenfunction,
    germ_isomorphism,
    mult_by_euler,
    product_model,
    standard_block,
    standard_model,
    symmetry_basis,
)
from regfman.jets import JetArray
from regfman.regend import jordan_spectrum

from loop_oracles import JetVector, lie_bracket


class TestStandardBlock:
    def test_m2_structure(self):
        m = standard_block(0.7, 2)
        sp = m.space
        # d1 o d1 = 0
        assert m.structure[1][1].residual_norm() == 0.0
        # E = (t0+a) d0 + (t1+1) d1
        assert (m.euler[0] - (sp.variable(0) + 0.7)).residual_norm() == 0.0
        assert (m.euler[1] - (sp.variable(1) + 1.0)).residual_norm() == 0.0

    def test_m1(self):
        m = standard_block(2.0, 1)
        assert (m.euler[0] - (m.space.variable(0) + 2.0)).residual_norm() == 0.0

    def test_u_origin_nilpotent(self):
        m = standard_block(0.0, 2)
        u0 = mult_by_euler(m).constant_term()
        assert u0 == pytest.approx(np.array([[0, 0], [1, 0]]))

    def test_mult_by_euler_jets(self):
        a = 0.3 + 1j
        m = standard_block(a, 2)
        u = mult_by_euler(m)
        sp = m.space
        assert (u[0, 0] - (sp.variable(0) + a)).residual_norm() == 0.0
        assert u[0, 1].residual_norm() == 0.0
        assert (u[1, 0] - (sp.variable(1) + 1.0)).residual_norm() == 0.0
        assert (u[1, 1] - (sp.variable(0) + a)).residual_norm() == 0.0


class TestProducts:
    def test_two_points(self):
        m = product_model([standard_block(1.0, 1), standard_block(2.0, 1)])
        u0 = mult_by_euler(m).constant_term()
        assert u0 == pytest.approx(np.diag([1.0, 2.0]))

    def test_single_factor_identity(self):
        b = standard_block(0.5, 2)
        assert product_model([b]) is b

    def test_block_diag_spectrum(self):
        m = product_model([standard_block(1j, 2), standard_block(0.0, 1)])
        spec = jordan_spectrum(mult_by_euler(m).constant_term())
        assert [s for _, s in spec.blocks] == [1, 2]

    def test_standard_model_sorting(self):
        m = standard_model([(2.0, 1), (1.0, 2)])
        assert m.blocks == ((1.0, 2), (2.0, 1))

    def test_standard_model_rejects_repeats(self):
        with pytest.raises(SpectrumError):
            standard_model([(1.0, 1), (1.0, 2)])


class TestCheckFManifold:
    @pytest.mark.parametrize("a,m", [(0.0, 2), (1.5 - 1j, 3), (0.0, 1)])
    def test_blocks_pass(self, a, m):
        rep = check_fmanifold(standard_block(a, m))
        assert rep.passes(1e-10), rep

    def test_products_pass(self):
        model = standard_model([(0.0, 2), (1.0, 1)])
        rep = check_fmanifold(model)
        assert rep.passes(1e-10), rep

    def test_associativity_defect_detected(self):
        # d1 o d2 += 0.1 d0 breaks associativity: (d1 o d2) o d2 vs d1 o 0
        base = standard_block(0.0, 3)
        sp = base.space
        mult = [list(row) for row in base.structure]
        bad = list(mult[1][2])
        bad[0] = bad[0] + 0.1
        mult[1][2] = JetVector(bad)
        mult[2][1] = JetVector(bad)
        model = FManifoldModel(JetArray.from_jets(mult), base.unit, base.euler, blocks=base.blocks)
        rep = check_fmanifold(model)
        assert rep["associativity"].value >= 0.05

    def test_euler_defect_detected(self):
        # a coordinate-dependent perturbation of the structure tensor breaks
        # the Euler condition even in two dimensions
        base = standard_block(0.0, 2)
        sp = base.space
        mult = [list(row) for row in base.structure]
        bad = list(mult[1][1])
        bad[1] = bad[1] + sp.variable(1).scale(0.1)
        mult[1][1] = JetVector(bad)
        model = FManifoldModel(JetArray.from_jets(mult), base.unit, base.euler, blocks=base.blocks)
        rep = check_fmanifold(model)
        assert rep["euler"].value >= 0.05

    def test_constant_structure_perturbation_is_still_fmanifold(self):
        # any constant commutative unital 2-dim multiplication is associative,
        # so a constant defect in c_11 does not break the axioms
        base = standard_block(0.0, 2)
        mult = [list(row) for row in base.structure]
        bad = list(mult[1][1])
        bad[1] = bad[1] + 0.1
        mult[1][1] = JetVector(bad)
        model = FManifoldModel(JetArray.from_jets(mult), base.unit, base.euler)
        rep = check_fmanifold(model)
        assert rep.passes(1e-10)


class TestCanonicalFrame:
    def test_block_frame(self):
        m = standard_block(0.0, 2)
        fr = canonical_frame(m)
        sp = m.space
        assert (fr[0][0] - 1.0).residual_norm() == 0.0
        # X_1 = E
        assert (fr[1][0] - sp.variable(0)).residual_norm() == 0.0
        assert (fr[1][1] - (sp.variable(1) + 1.0)).residual_norm() == 0.0

    def test_semisimple_frame_origin(self):
        m = product_model([standard_block(1.0, 1), standard_block(2.0, 1)])
        fr = canonical_frame(m)
        assert fr[1].constant_terms() == pytest.approx(np.array([1.0, 2.0]))

    def test_m1(self):
        fr = canonical_frame(standard_block(3.0, 1))
        assert len(fr) == 1

    def test_nonregular_origin_rejected(self):
        # two coincident eigenvalues in separate blocks: not regular
        m = product_model([standard_block(1.0, 1), standard_block(1.0 + 1e-13, 1)])
        with pytest.raises(RegularityError):
            canonical_frame(m)


class TestBracketConstants:
    def test_row0_binomials(self):
        for n in (1, 2, 3, 4, 5):
            c = BracketConstants.build(n)
            import math

            for k in range(n):
                assert c.value(k, 0) == (-1.0) ** (n - k) * math.comb(n, k)

    def test_n2_row1(self):
        c = BracketConstants.build(2)
        assert c.row(1) == (2.0, -3.0)

    def test_negative_powers(self):
        c = BracketConstants.build(3)
        for k in range(3):
            assert c.value(k, k - 3) == -1.0
            assert c.value(k, -7) == 0.0
        assert c.value(0, -1) == 0.0
        assert c.value(2, -1) == -1.0


class TestFrameBrackets:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_single_blocks(self, m):
        model = standard_block(0.5 - 0.5j, m)
        rep = check_frame_brackets(model)
        assert rep.passes(1e-9), rep.worst()

    def test_hertling_only_for_products(self):
        model = standard_model([(0.0, 1), (1.0, 1)])
        rep = check_frame_brackets(model)
        assert rep.passes(1e-9)
        assert all(k.startswith("hertling") for k in rep)

    def test_m2_hand_bracket(self):
        # [X_1, X_2] = 2a X_1 - a^2 X_0 with a = t0 on the nilpotent 2-block;
        # the direct bracket evaluates to (t0^2, 2 t0 (t1+1))
        model = standard_block(0.0, 2)
        sp = model.space
        fr = canonical_frame(model)
        x2 = model.multiply(model.euler, fr[1])
        br = lie_bracket(fr[1], x2)
        t0, t1 = sp.variable(0), sp.variable(1)
        assert (br[0] - t0 * t0).residual_norm() < 1e-14
        assert (br[1] - t0.scale(2.0) * (t1 + 1.0)).residual_norm() < 1e-14
        a = eigenfunction(mult_by_euler(model))[()]
        rhs = JetVector(fr[1]).scale(a.scale(2.0)) - JetVector(fr[0]).scale(a * a)
        assert (br - rhs).residual_norm() < 1e-14

    def test_eigenfunction_power_m3(self):
        model = standard_block(1.0 + 2j, 3)
        a = eigenfunction(mult_by_euler(model))[()]
        fr = canonical_frame(model)
        assert (JetVector(fr[2]).apply_to(a) - a * a).residual_norm() < 1e-10


class TestSymmetries:
    def test_basis_m3(self):
        ys = symmetry_basis(3)
        sp = ys[0].space
        # Y_1 = (t1+1) d1 + 2 t2 d2
        assert (ys[0][1] - (sp.variable(1) + 1.0)).residual_norm() == 0.0
        assert (ys[0][2] - sp.variable(2).scale(2.0)).residual_norm() == 0.0
        # Y_2 = (t1+1) d2
        assert ys[1][1].residual_norm() == 0.0
        assert (ys[1][2] - (sp.variable(1) + 1.0)).residual_norm() == 0.0

    def test_basis_m2(self):
        ys = symmetry_basis(2)
        assert len(ys) == 1
        sp = ys[0].space
        assert (ys[0][1] - (sp.variable(1) + 1.0)).residual_norm() == 0.0

    def test_basis_m1_empty(self):
        assert symmetry_basis(1) == []

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_fields_are_symmetries(self, m):
        model = standard_block(0.25, m)
        for y in symmetry_basis(m):
            rep = check_symmetry(model, y)
            assert rep.passes(1e-10), (m, rep.worst())

    def test_unit_field_not_a_symmetry(self):
        model = standard_block(0.0, 2)
        rep = check_symmetry(model, JetArray.constant(model.space, np.eye(model.dim)[0]))
        assert rep["mult_invariance"].value < 1e-12
        assert rep["euler_commute"].value == pytest.approx(1.0)

    def test_cond_circ_detects(self):
        model = standard_block(0.0, 2)
        sp = model.space
        x = JetVector([sp.variable(0), sp.zero()])
        rep = check_symmetry(model, JetArray.from_jets(x))
        assert rep["circ_unit"].value == pytest.approx(1.0)

    def test_bracket_table(self):
        rep = check_symmetry_brackets(3)
        assert rep.passes(1e-12), rep
        # includes the vanishing entry [Y_2, Y_2] and the i+j > m zero cases
        assert "bracket_2_2" in rep


class TestGermIsomorphism:
    def test_identity_on_equal_models(self):
        model = standard_block(0.5, 2)
        iso = germ_isomorphism(model, model)
        psi, rep = iso.map, iso.report
        sp = model.space
        assert (psi[0] - sp.variable(0)).residual_norm() < 1e-12
        assert (psi[1] - sp.variable(1)).residual_norm() < 1e-12
        assert rep.passes(1e-10)

    def test_eigenvalue_mismatch_rejected(self):
        a = standard_block(0.0, 1)
        b = standard_block(0.5, 1)
        with pytest.raises(NoIsomorphismError):
            germ_isomorphism(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(NoIsomorphismError):
            germ_isomorphism(standard_block(0.0, 1), standard_block(0.0, 2))

    def test_recovers_coordinate_change(self):
        # push the nilpotent 2-block through t -> (t0, t1 + t1^2) and solve back
        base = standard_block(0.3, 2, order=4)
        sp = base.space
        t0, t1 = sp.variable(0), sp.variable(1)
        # phi(t) = (t0, t1 + t1^2), Jacobian J = [[1,0],[0,1+2t1]]
        # pushed structure computed by transporting the canonical model:
        # mult'_{ij} = J (J^{-1}d_i o J^{-1}d_j), unit' = J e, euler' = J E o phi^{-1}
        # Coordinates s = (t0, f(t1)) with f(t1) = t1 + t1^2.  The block's
        # structure tensor is unchanged under this change (d_s1 = d_t1 / f'
        # and all nontrivial products vanish or reproduce d_1), while the
        # Euler field transforms: E' = (s0+a) d_s0 + f'(g(s1)) (g(s1)+1) d_s1
        # with g the compositional inverse of f.
        inv1 = _series_inverse_1d(sp, 4)
        f_prime_at_inv = 1.0 + inv1.scale(2.0)
        mult = [list(r) for r in base.structure]
        euler0 = t0 + 0.3
        euler1 = f_prime_at_inv * (inv1 + 1.0)
        pushed = FManifoldModel(JetArray.from_jets(mult), base.unit, JetArray.from_jets(JetVector([euler0, euler1])))
        rep0 = check_fmanifold(pushed)
        assert rep0.passes(1e-9), rep0.worst()
        iso = germ_isomorphism(base, pushed)
        psi, rep = iso.map, iso.report
        assert rep.passes(1e-8), rep.worst()
        # psi must be the forward change s = (t0, t1 + t1^2)
        assert (psi[0] - t0).residual_norm() < 1e-9
        assert (psi[1] - (t1 + t1 * t1)).residual_norm() < 1e-9


def _series_inverse_1d(sp, order):
    """Compositional inverse of f(x) = x + x^2 in the second variable."""
    # g with g + g^2 = t1, g(0) = 0, solved order by order
    t1 = sp.variable(1)
    g = sp.zero()
    for _ in range(order + 1):
        g = t1 - g * g
    return g


def _pushed_nilpotent_block(a, order):
    """The 2-block transported along t -> (t0, t1 + t1^2); structure tensor
    unchanged, Euler field adjusted (see TestGermIsomorphism)."""
    base = standard_block(a, 2, order=order)
    sp = base.space
    t0 = sp.variable(0)
    inv1 = _series_inverse_1d(sp, order)
    euler1 = (1.0 + inv1.scale(2.0)) * (inv1 + 1.0)
    return FManifoldModel(
        JetArray.from_jets([list(r) for r in base.structure]),
        base.unit,
        JetArray.from_jets(JetVector([t0 + a, euler1])),
        blocks=base.blocks,
    )


class TestGermIsomorphismProducts:
    def test_mixed_block_product(self):
        # 3-dim product: pushed 2-block times a semisimple point; the
        # solver must recover the block-diagonal coordinate change
        order = 4
        a = 0.3
        target = product_model(
            [standard_block(a, 2, order), standard_block(2.0, 1, order)]
        )
        pushed = product_model(
            [_pushed_nilpotent_block(a, order), standard_block(2.0, 1, order)]
        )
        assert check_fmanifold(pushed).passes(1e-9)
        iso = germ_isomorphism(target, pushed)
        psi, rep = iso.map, iso.report
        assert rep.passes(1e-8), rep.worst()
        sp = target.space
        t0, t1, u = sp.variable(0), sp.variable(1), sp.variable(2)
        assert (psi[0] - t0).residual_norm() < 1e-9
        assert (psi[1] - (t1 + t1 * t1)).residual_norm() < 1e-9
        assert (psi[2] - u).residual_norm() < 1e-9


ORIGIN_DATA = ("_euler_matrix", "_regularity", "_spectrum", "_frame", "_frame_inverse")


def count_origin_data(monkeypatch) -> dict:
    """From here on, counts of each origin datum formed (the body of each
    cached property run, whether it returns or raises) and of the
    contractions of the form of U = E o made by any module that contracts."""
    counts = dict.fromkeys(("contract_u", *ORIGIN_DATA), 0)
    for name in ORIGIN_DATA:
        prop = FManifoldModel.__dict__[name]

        def counted(model, name=name, body=prop.func):
            counts[name] += 1
            return body(model)

        monkeypatch.setattr(prop, "func", counted)
    contract = jets.contract

    def counted_contract(subscripts, *operands):
        counts["contract_u"] += subscripts == "i,ijk->kj"
        return contract(subscripts, *operands)

    for module in (fman, frob, malgrange, saito):
        monkeypatch.setattr(module, "contract", counted_contract)
    return counts


class TestOneMultiplicationByE:
    def test_each_model_forms_its_origin_data_once(self, monkeypatch):
        # U, its probe and spectrum, the canonical frame and P^-1 are
        # formed on first use and kept on the model: the isomorphism, the
        # public entry points and check_frame_brackets read them again
        # without forming them again
        order = 5
        target = product_model([standard_block(0.3, 2, order), standard_block(2.0, 1, order)])
        pushed = product_model([_pushed_nilpotent_block(0.3, order), standard_block(2.0, 1, order)])
        counts = count_origin_data(monkeypatch)
        iso = germ_isomorphism(target, pushed)
        assert iso.report.passes(1e-8), iso.report.worst()
        once_each = {"contract_u": 2, "_euler_matrix": 2, "_regularity": 2, "_spectrum": 2, "_frame": 2}
        assert counts == {**once_each, "_frame_inverse": 1}
        again = germ_isomorphism(target, pushed)
        assert np.array_equal(again.map.coeffs, iso.map.coeffs)
        assert mult_by_euler(target) is mult_by_euler(target) is target._euler_matrix
        assert canonical_frame(target) is canonical_frame(target) is target._frame
        assert target._frame_inverse is target._frame_inverse
        assert target._spectrum is iso.spectra[0] and pushed._spectrum is iso.spectra[1]
        assert counts == {**once_each, "_frame_inverse": 1}
        block = standard_block(0.5, 3, order)
        for _ in range(2):
            report = check_frame_brackets(block)
            assert report.passes(1e-10), report.worst()
            assert "min_poly_identity" in report and "eigenfunction_2" in report
        assert counts == {**{k: v + 1 for k, v in once_each.items()}, "_frame_inverse": 1}

    def test_a_non_regular_origin_is_refused_on_every_call(self, monkeypatch):
        # the probe is kept; the refusal stores no frame, so each call
        # raises again
        m = product_model([standard_block(1.0, 1), standard_block(1.0 + 1e-13, 1)])
        counts = count_origin_data(monkeypatch)
        for _ in range(3):
            with pytest.raises(RegularityError, match="not regular at the origin"):
                canonical_frame(m)
        assert not m._regularity
        assert "_frame" not in vars(m)
        assert (counts["_regularity"], counts["_frame"]) == (1, 3)

    def test_a_degenerate_frame_is_refused_on_every_call(self, monkeypatch):
        # U(0) = diag(1, 2) is regular, but the field (1, 0) taken as the
        # unit is an eigenvector of it: the frame at the origin is singular
        base = product_model([standard_block(1.0, 1), standard_block(2.0, 1)])
        m = FManifoldModel(base.structure, JetArray.constant(base.space, np.eye(2)[0]), base.euler)
        counts = count_origin_data(monkeypatch)
        for _ in range(3):
            with pytest.raises(RegularityError, match=r"canonical frame degenerate at the origin \(cond inf\)"):
                canonical_frame(m)
            with pytest.raises(RegularityError, match="degenerate"):
                germ_isomorphism(m, base)
        assert m._regularity
        assert "_frame" not in vars(m) and "_frame_inverse" not in vars(m)
        # one probe per model; three frames refused by each entry point
        assert (counts["_regularity"], counts["_frame"], counts["_frame_inverse"]) == (2, 6, 0)

    def test_the_structure_tensor_is_marked_once_per_model(self, monkeypatch):
        # the Euler powers, U and the axiom checks read one marked tensor
        order = 5
        target = product_model([standard_block(0.3, 2, order), standard_block(2.0, 1, order)])
        pushed = product_model([_pushed_nilpotent_block(0.3, order), standard_block(2.0, 1, order)])
        marked = []
        original = JetArray.exact_zeros

        def counted(array):
            if array is pushed.structure:
                marked.append(array)
            return original(array)

        monkeypatch.setattr(JetArray, "exact_zeros", counted)
        assert check_fmanifold(pushed).passes(1e-10)
        assert germ_isomorphism(target, pushed).report.passes(1e-8)
        check_frame_brackets(pushed)
        assert len(marked) == 1


class TestEffectiveOrders:
    def test_reports_state_reduced_orders(self):
        rep = check_fmanifold(standard_block(0.0, 2))
        assert rep["integrability"].order == 3
        assert rep["euler"].order == 3
        assert rep["commutativity"].order == 4
