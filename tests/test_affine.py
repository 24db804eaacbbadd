from fractions import Fraction

import pytest
from hypothesis import given, settings

from liefusion.affine import (
    AffineWeight,
    FusionQuery,
    HypothesisViolation,
    admissible_weights,
    casimir_eigenvalue,
    conformal_weight,
    fusion_decomposition,
    generating_check,
    kac_walton_fusion,
    level_reduction_conditions,
    closed_form_fusion,
    large_level_check,
)
from liefusion.errors import InvariantError
from liefusion.rootsys import AlgebraId, Weight, build_root_system, dual_weight, inner_product
from liefusion.highmod import DEFAULT_CAP, weyl_dimension
from liefusion.tensor import TensorQuery, tensor_multiplicity
from strategies import admissible_pairs
from weight_reference import ref_fusion_decomposition

G2 = AlgebraId("G", 2)


def W(aid, coords):
    return Weight.from_fundamental(aid, coords)


def AW(aid, coords, level):
    return AffineWeight(W(aid, coords), level)


def test_admissible_weight_sets():
    d4 = AlgebraId("D", 4)
    adm = {str(w.finite_part) for w in admissible_weights(d4, 1)}
    assert adm == {"(0,0,0,0)", "(1,0,0,0)", "(0,0,1,0)", "(0,0,0,1)"}
    c3 = AlgebraId("C", 3)
    adm = {str(w.finite_part) for w in admissible_weights(c3, 1)}
    assert adm == {"(0,0,0)", "(1,0,0)", "(0,1,0)", "(0,0,1)"}
    for aid in (AlgebraId("A", 2), AlgebraId("B", 3), G2):
        assert len(admissible_weights(aid, 0)) == 1


def test_admissibility_enforced():
    with pytest.raises(ValueError, match="not admissible"):
        AW(G2, [0, 1], 1)  # the 14-dim weight pairs to 2 against theta


def test_conformal_weight_values_and_positivity():
    a1 = AlgebraId("A", 1)
    assert conformal_weight(AW(a1, [1], 1)) == Fraction(1, 4)
    assert conformal_weight(AW(a1, [0], 3)) == 0
    for aid in (a1, AlgebraId("A", 4), AlgebraId("B", 4), AlgebraId("C", 3),
                AlgebraId("D", 4), AlgebraId("F", 4), G2):
        for level in (1, 2, 3):
            for w in admissible_weights(aid, level):
                assert (conformal_weight(w) > 0) == (not w.finite_part.is_zero())


def test_conformal_weight_against_casimir_oracle():
    # the closed form is anchored to an independent trace-form computation
    for aid, f in ((AlgebraId("A", 1), [1]), (AlgebraId("B", 2), [0, 1]),
                   (AlgebraId("C", 2), [1, 0]), (G2, [1, 0])):
        lam = W(aid, f)
        rs = build_root_system(aid)
        closed = inner_product(lam, lam) + 2 * inner_product(lam, rs.weyl_vector)
        assert casimir_eigenvalue(lam) == closed
        for level in (1, 2):
            if inner_product(lam, rs.highest_root) <= level:
                dw = conformal_weight(AffineWeight(lam, level))
                assert dw == closed / (2 * (level + rs.dual_coxeter))


def _perturbed_realization(monkeypatch, lam, change):
    """Serve casimir_eigenvalue a deep copy of L(lam)'s realization with
    change(copy) applied; the realization cache stays clean."""
    import copy

    import liefusion.affine as affine

    real = affine.realize_module
    mod = copy.deepcopy(real(lam))
    change(mod)
    monkeypatch.setattr(affine, "realize_module", lambda mu: mod if mu == lam else real(mu))


def test_casimir_sees_a_split_module(monkeypatch):
    # zeroing E and F between weights 0 and -2 of the adjoint of A1 splits
    # it into span(v_2, v_0) + span(v_-2), and the Casimir reads 20/3 on the
    # first and 8/3 on the second
    def split(mod):
        mod.e_block[(0, (-2,))][0][0][0] = 0
        mod.f_block[(0, (0,))][0][0][0] = 0

    _perturbed_realization(monkeypatch, W(AlgebraId("A", 1), [2]), split)
    with pytest.raises(InvariantError, match=r"Casimir on L\(\(2\)\) is not scalar: "
                                             r"entry \(2, 2\) is 8/3, diagonal 20/3"):
        casimir_eigenvalue(W(AlgebraId("A", 1), [2]))


def test_casimir_sees_a_degenerate_trace_form(monkeypatch):
    # with E zeroed, the closure of E, F, H on L(1) of A1 is solvable
    def kill_e(mod):
        mod.e_block[(0, (-1,))][0][0][0] = 0

    _perturbed_realization(monkeypatch, W(AlgebraId("A", 1), [1]), kill_e)
    with pytest.raises(InvariantError, match="trace form .* is degenerate"):
        casimir_eigenvalue(W(AlgebraId("A", 1), [1]))


def test_conformal_weights_claim_sees_a_perturbed_generator(monkeypatch):
    # one E-block of the spin module L(0, 1) of B2 raised by one: the
    # generators then close on a larger algebra, whose Casimir is the
    # scalar 15/4 instead of (lam|lam + 2 rho) = 5/2
    from liefusion.verify import VerificationReport, check_conformal_weights

    def bump(mod):
        nums, den = mod.e_block[(1, (1, -1))]
        nums[0][0] += den

    lam = W(AlgebraId("B", 2), [0, 1])
    _perturbed_realization(monkeypatch, lam, bump)
    assert casimir_eigenvalue(lam) == Fraction(15, 4)
    report = VerificationReport("c")
    check_conformal_weights(report)
    (claim,) = report.results
    assert claim.status == "fail"
    assert claim.detail == "A1:3/2; B2:15/4; C2:5/2; G2:4; A2:6"


def test_vacuum_fusion():
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), G2):
        for level in (1, 2):
            vac = AW(aid, [0] * aid.rank, level)
            for mu in admissible_weights(aid, level):
                assert kac_walton_fusion(FusionQuery(vac, mu, mu)) == 1


def test_fusion_symmetries_exhaustive_small():
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), AlgebraId("C", 2), G2):
        for level in (1, 2):
            adm = admissible_weights(aid, level)
            for lam in adm:
                lam_bar = AffineWeight(dual_weight(lam.finite_part), level)
                for mu in adm:
                    mu_bar = AffineWeight(dual_weight(mu.finite_part), level)
                    for nu in adm:
                        nu_bar = AffineWeight(dual_weight(nu.finite_part), level)
                        n = kac_walton_fusion(FusionQuery(lam, mu, nu))
                        assert n == kac_walton_fusion(FusionQuery(mu, lam, nu))
                        assert n == kac_walton_fusion(FusionQuery(lam_bar, nu, mu))
                        assert n == kac_walton_fusion(FusionQuery(lam_bar, mu_bar, nu_bar))


@settings(max_examples=60, deadline=None)
@given(admissible_pairs())
def test_fusion_symmetry_and_duality_property(triple):
    # N_{lam mu}^nu = N_{mu lam}^nu = N_{lam nu*}^{mu*} for every admissible nu
    lam, mu, level = triple
    dec = fusion_decomposition(lam, mu, level)
    assert dec == fusion_decomposition(mu, lam, level)
    mu_dual = dual_weight(mu).fundamental
    for nu in admissible_weights(lam.algebra, level):
        nu = nu.finite_part
        assert (dec.get(nu.fundamental, 0)
                == fusion_decomposition(lam, dual_weight(nu), level).get(mu_dual, 0))


def test_fusion_bounded_by_tensor_rule():
    for aid in (AlgebraId("B", 2), AlgebraId("C", 2), G2):
        for level in (1, 2, 3):
            adm = admissible_weights(aid, level)
            for lam in adm:
                for mu in adm:
                    for nu in adm:
                        n = kac_walton_fusion(FusionQuery(lam, mu, nu))
                        t = tensor_multiplicity(TensorQuery(
                            lam.finite_part, mu.finite_part, nu.finite_part
                        ))
                        assert n <= t


def test_saturation_at_large_level():
    for aid in (AlgebraId("B", 2), G2):
        rs = build_root_system(aid)
        adm1 = admissible_weights(aid, 2)
        for lam in adm1:
            for mu in adm1:
                need = int(inner_product(lam.finite_part, rs.highest_root)
                           + inner_product(mu.finite_part, rs.highest_root))
                dec = fusion_decomposition(lam.finite_part, mu.finite_part, need)
                from liefusion.tensor import tensor_decomposition

                assert dec == tensor_decomposition(lam.finite_part, mu.finite_part)


def test_g2_level_one_loop():
    q = FusionQuery(AW(G2, [1, 0], 1), AW(G2, [1, 0], 1), AW(G2, [1, 0], 1))
    assert kac_walton_fusion(q) == 1
    assert closed_form_fusion(q) == 1
    r = large_level_check(q)
    assert not r.applicable


def test_b_series_loop_exception():
    b2 = AlgebraId("B", 2)
    lvl = 2
    v1 = AW(b2, [1, 0], lvl)
    # vanishing last coordinate: loop forbidden
    q = FusionQuery(v1, v1, v1)
    assert closed_form_fusion(q) == 0 == kac_walton_fusion(q)
    # positive pairing against the short functional: loop allowed
    sp = AW(b2, [0, 1], lvl)
    q = FusionQuery(v1, sp, sp)
    assert closed_form_fusion(q) == 1 == kac_walton_fusion(q)


def test_unsupported_charge_is_distinct():
    q = FusionQuery(AW(G2, [0, 1], 2), AW(G2, [0, 0], 2), AW(G2, [0, 1], 2))
    assert closed_form_fusion(q) is None
    assert kac_walton_fusion(q) == 1


def test_paper_rule_matches_oracle_levels_1_to_3():
    cases = [
        (AlgebraId("B", 2), ([1, 0], [0, 1])),
        (AlgebraId("C", 2), ([1, 0],)),
        (AlgebraId("A", 2), ([1, 0],)),
        (AlgebraId("D", 4), ([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])),
        (G2, ([1, 0],)),
    ]
    for aid, charges in cases:
        for level in (1, 2, 3):
            adm = admissible_weights(aid, level)
            for ch in charges:
                chw = AW(aid, ch, level)
                for mu in adm:
                    for nu in adm:
                        q = FusionQuery(chw, mu, nu)
                        assert closed_form_fusion(q) == kac_walton_fusion(q)


def test_generating_families():
    b2, c2, d4 = AlgebraId("B", 2), AlgebraId("C", 2), AlgebraId("D", 4)
    for level in (1, 2, 3):
        ok, chains = generating_check([W(b2, [0, 1])], level, b2)
        assert ok
        ok, _ = generating_check([W(c2, [1, 0])], level, c2)
        assert ok
        ok, _ = generating_check([W(d4, [0, 0, 1, 0]), W(d4, [0, 0, 0, 1])], level, d4)
        assert ok
        ok, _ = generating_check([W(G2, [1, 0])], level, G2)
        assert ok
    # level zero: only the vacuum, trivially generating
    ok, chains = generating_check([], 0, b2)
    assert ok and chains == {}
    # the vector weight alone does not generate the spin sector at level 1
    ok, _ = generating_check([W(b2, [1, 0])], 1, b2)
    assert not ok


def test_large_level_saturation_and_reporting():
    b2 = AlgebraId("B", 2)
    q = FusionQuery(AW(b2, [1, 0], 3), AW(b2, [0, 1], 3), AW(b2, [0, 1], 3))
    r = large_level_check(q)
    assert r.applicable and r.agree
    q2 = FusionQuery(AW(G2, [1, 0], 1), AW(G2, [1, 0], 1), AW(G2, [1, 0], 1))
    assert not large_level_check(q2).applicable
    assert large_level_check(q2).agree is None


def test_level_reduction_conditions():
    c2 = AlgebraId("C", 2)
    flags = level_reduction_conditions(
        W(c2, [1, 0]), W(c2, [1, 0]), W(c2, [2, 0]), W(c2, [1, 0]),
        W(c2, [0, 0]), W(c2, [1, 0]), level=2, a=1,
    )
    assert flags["a"]
    flags_g = level_reduction_conditions(
        W(G2, [1, 0]), W(G2, [2, 0]), W(G2, [0, 1]), W(G2, [1, 0]),
        W(G2, [1, 0]), W(G2, [1, 0]), level=2, a=1,
    )
    assert flags_g["b"] and not flags_g["a"]
    # hypothesis failures are named
    with pytest.raises(HypothesisViolation, match="maximal theta-pairing"):
        level_reduction_conditions(
            W(c2, [1, 0]), W(c2, [1, 0]), W(c2, [2, 0]), W(c2, [1, 0]),
            W(c2, [0, 0]), W(c2, [1, 0]), level=2, a=2,
        )
    with pytest.raises(HypothesisViolation, match="exceeds level - a"):
        level_reduction_conditions(
            W(c2, [1, 0]), W(c2, [1, 0]), W(c2, [2, 0]), W(c2, [2, 0]),
            W(c2, [0, 0]), W(c2, [1, 0]), level=2, a=1,
        )


def test_reduction_with_zero_shift_is_trivial():
    # shift 0 with matching data satisfies condition (a) immediately
    c2 = AlgebraId("C", 2)
    flags = level_reduction_conditions(
        W(c2, [1, 0]), W(c2, [0, 0]), W(c2, [1, 0]), W(c2, [0, 0]),
        W(c2, [0, 0]), W(c2, [1, 0]), level=1, a=1,
    )
    assert flags["a"]


_FOLD_TYPES = ("A2", "B3", "C3", "G2")


@pytest.mark.parametrize("label", _FOLD_TYPES)
def test_fusion_decomposition_matches_weight_folding(label):
    # every pair of admissibles at levels 1-3, charges under the default cap
    aid = AlgebraId.parse(label)
    checked = 0
    for level in (1, 2, 3):
        adm = [w.finite_part for w in admissible_weights(aid, level)]
        for lam in adm:
            if weyl_dimension(lam) > DEFAULT_CAP:
                continue
            for mu in adm:
                got = fusion_decomposition(lam, mu, level)
                assert got == ref_fusion_decomposition(lam, mu, level), (str(lam), str(mu))
                assert all(type(x) is int for key in got for x in key)
                checked += 1
    assert checked > 0
