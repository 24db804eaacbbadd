import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liefusion import linalg
from rational_view import frac_matmul, rational
from liefusion.lattice import (
    Cocycle,
    DualCocycle,
    IntegralLattice,
    intertwiner_phase,
    intertwiner_phase_exponent,
    lattice_fusion,
    phase_value,
)
from liefusion.verify import random_even_lattice
from structure_reference import ref_cocycle_value, ref_dual_exponent, ref_pairing


def test_lattice_validation():
    with pytest.raises(ValueError, match="odd"):
        IntegralLattice.from_rows([[1]])
    with pytest.raises(ValueError, match="symmetric"):
        IntegralLattice.from_rows([[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="degenerate"):
        IntegralLattice.from_rows([[2, 2], [2, 2]])
    # a non-integral entry is refused, not truncated to an integer
    for rows in ([[2.5]], [[2, 1.5], [1.5, 2]], [[2, Fraction(1, 2)], [Fraction(1, 2), 2]]):
        with pytest.raises(ValueError, match="integral"):
            IntegralLattice.from_rows(rows)
    assert IntegralLattice.from_rows([[2.0, -1], [Fraction(-1), 2]]).gram == ((2, -1), (-1, 2))
    lat = IntegralLattice.from_rows([[2, -1], [-1, 2]])
    assert lat.rank == 2
    assert lat.pairing([1, 0], [0, 1]) == -1


def test_dual_membership():
    lat = IntegralLattice.from_rows([[2]])
    assert lat.dual_contains([Fraction(1, 2)])
    assert not lat.dual_contains([Fraction(1, 3)])
    assert lat.contains([3]) and not lat.contains([Fraction(1, 2)])


def test_rank_one_cocycle_trivial():
    lat = IntegralLattice.from_rows([[2]])
    eps = Cocycle(lat)
    assert eps.basis_values == [[1]]
    assert eps.commutator([1], [1]) == 1
    assert eps.value([5], [0]) == 1


def test_cocycle_identities_random():
    rng = random.Random(2)
    for _ in range(8):
        rank = rng.randint(1, 4)
        lat = random_even_lattice(rng, rank)
        eps = Cocycle(lat)
        for _ in range(200):
            a = [rng.randint(-3, 3) for _ in range(rank)]
            b = [rng.randint(-3, 3) for _ in range(rank)]
            c = [rng.randint(-3, 3) for _ in range(rank)]
            bc = [x + y for x, y in zip(b, c)]
            ab = [x + y for x, y in zip(a, b)]
            assert eps.value(a, bc) * eps.value(b, c) == eps.value(a, b) * eps.value(ab, c)
            assert eps.value(a, b) == eps.commutator(a, b) * eps.value(b, a)
            assert eps.commutator(a, b) == (-1) ** (int(lat.pairing(a, b)) % 2)


def test_dual_cocycle_restriction():
    rng = random.Random(13)
    for _ in range(6):
        rank = rng.randint(1, 3)
        lat = random_even_lattice(rng, rank)
        dc = DualCocycle(lat)
        for _ in range(100):
            a = [rng.randint(-3, 3) for _ in range(rank)]
            b = [rng.randint(-3, 3) for _ in range(rank)]
            assert (dc.exponent(a, b) - dc.exponent(b, a)) % 2 == lat.pairing(a, b) % 2
            assert dc.exponent(a, [0] * rank) == 0


def test_fusion_membership_rule():
    lat = IntegralLattice.from_rows([[2]])
    h = Fraction(1, 2)
    assert lattice_fusion(lat, [h], [h], [1]) == 1
    assert lattice_fusion(lat, [h], [h], [0]) == 1  # differs from the sum by 1
    assert lattice_fusion(lat, [h], [0], [0]) == 0
    with pytest.raises(ValueError, match="dual"):
        lattice_fusion(lat, [Fraction(1, 3)], [0], [0])


def test_fusion_shift_invariance_and_symmetry():
    rng = random.Random(21)
    lat = random_even_lattice(rng, 3)
    db = lat.dual_basis()

    def rand_dual():
        out = [Fraction(0)] * 3
        for col in db:
            k = rng.randint(-2, 2)
            out = [o + k * c for o, c in zip(out, col)]
        return out

    for _ in range(50):
        lam, mu, nu = rand_dual(), rand_dual(), rand_dual()
        n = lattice_fusion(lat, lam, mu, nu)
        assert n == lattice_fusion(lat, mu, lam, nu)
        shift = [rng.randint(-2, 2) for _ in range(3)]
        lam2 = [x + s for x, s in zip(lam, shift)]
        assert n == lattice_fusion(lat, lam2, mu, nu)


def test_phase_at_base_point():
    lat = IntegralLattice.from_rows([[2, 0], [0, 4]])
    dc = DualCocycle(lat)
    db = lat.dual_basis()
    lam = [x + y for x, y in zip(db[0], db[1])]
    mu0 = db[1]
    t = intertwiner_phase_exponent(lat, dc, lam, mu0, mu0)
    assert t == dc.exponent(lam, mu0)
    val = intertwiner_phase(lat, dc, lam, mu0, mu0)
    assert abs(val - phase_value(t)) < 1e-12


def test_phase_consistency_relations():
    rng = random.Random(17)
    for _ in range(5):
        rank = rng.randint(1, 3)
        lat = random_even_lattice(rng, rank)
        dc = DualCocycle(lat)
        db = lat.dual_basis()

        def rand_dual():
            out = [Fraction(0)] * rank
            for col in db:
                k = rng.randint(-2, 2)
                out = [o + k * c for o, c in zip(out, col)]
            return out

        for _ in range(60):
            alpha = [rng.randint(-2, 2) for _ in range(rank)]
            mu0 = rand_dual()
            lam = rand_dual()
            mu = [m + rng.randint(-2, 2) for m in mu0]
            ka = intertwiner_phase_exponent(lat, dc, lam, mu, mu0)
            lam_mu = [x + y for x, y in zip(lam, mu)]
            lhs = (dc.exponent(alpha, lam_mu) + ka) % 2
            shifted = [Fraction(a) + x for a, x in zip(alpha, lam)]
            rhs = (dc.exponent(alpha, lam)
                   + intertwiner_phase_exponent(lat, dc, shifted, mu, mu0)) % 2
            assert lhs == rhs
            shifted_mu = [Fraction(a) + x for a, x in zip(alpha, mu)]
            rhs2 = (lat.pairing(alpha, lam)
                    + intertwiner_phase_exponent(lat, dc, lam, shifted_mu, mu0)
                    + dc.exponent(alpha, mu)) % 2
            assert lhs == rhs2


def test_phase_coset_mismatch_rejected():
    lat = IntegralLattice.from_rows([[2]])
    with pytest.raises(ValueError, match="coset"):
        intertwiner_phase(lat, DualCocycle(lat), [Fraction(1, 2)],
                          [0], [Fraction(1, 2)])


# ---------------------------------------------------------------------------
# the integer forms against the Fraction formulas they replaced


def _fraction_bilinear(m, x, y):
    n = len(m)
    return sum(
        (Fraction(x[i]) * m[i][j] * Fraction(y[j]) for i in range(n) for j in range(n)),
        Fraction(0),
    )


def _fraction_cocycle_forms(lat):
    """The dual cocycle's exponent and commutator forms as Fraction matrices."""
    n = lat.rank
    q = [[Fraction(x) for x in row] for row in lat.gram]
    r = [[q[i][j] if i < j else (-q[i][j] if i > j else Fraction(0)) for j in range(n)]
         for i in range(n)]
    qinv = rational(linalg.inverse(q))
    t = frac_matmul(frac_matmul(qinv, r), qinv)
    s = [[t[i][j] if i > j else Fraction(0) for j in range(n)] for i in range(n)]
    return frac_matmul(frac_matmul(q, s), q), r


@st.composite
def _lattice_and_vectors(draw):
    rank = draw(st.integers(1, 4))
    lat = random_even_lattice(random.Random(draw(st.integers(0, 10**6))), rank)
    db = lat.dual_basis()

    def lattice_vec():
        return draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))

    def dual_vec():
        ks = lattice_vec()
        return [sum((k * col[i] for k, col in zip(ks, db)), Fraction(0)) for i in range(rank)]

    vecs = [draw(st.sampled_from((lattice_vec, dual_vec)))() for _ in range(4)]
    return lat, vecs, lattice_vec()


@settings(max_examples=200, deadline=None)
@given(_lattice_and_vectors())
def test_integer_pairings_match_fraction_formulas(case):
    lat, (x, y, lam, mu0), u = case
    w_form, r_form = _fraction_cocycle_forms(lat)
    dc = DualCocycle(lat)
    for a, b in ((x, y), (y, x), (lam, mu0), (u, lam)):
        p = lat.pairing(a, b)
        assert type(p) is Fraction and p == _fraction_bilinear(lat.gram, a, b)
        e = dc.exponent(a, b)
        assert type(e) is Fraction and e == _fraction_bilinear(w_form, a, b) % 2
        c = dc.commutator_exponent(a, b)
        assert type(c) is Fraction and c == _fraction_bilinear(r_form, a, b) % 2
    # the intertwiner phase: u = mu - mu0 in the lattice, lam and mu0 dual
    mu = [a + b for a, b in zip(mu0, u)]
    ref = (_fraction_bilinear(w_form, lam, mu) + _fraction_bilinear(r_form, u, lam)
           + _fraction_bilinear(lat.gram, u, lam)) % 2
    assert intertwiner_phase_exponent(lat, dc, lam, mu, mu0) == ref


@settings(max_examples=200, deadline=None)
@given(_lattice_and_vectors())
def test_membership_matches_fraction_formulas(case):
    lat, vecs, _ = case
    n = lat.rank
    for v in vecs:
        assert lat.contains(v) == all(Fraction(x).denominator == 1 for x in v)
        assert lat.dual_contains(v)
        half = [Fraction(x, 2) for x in v]
        dual_ref = all(
            sum((half[k] * lat.gram[k][i] for k in range(n)), Fraction(0)).denominator == 1
            for i in range(n)
        )
        assert lat.dual_contains(half) == dual_ref
        assert lat.contains(half) == all(x.denominator == 1 for x in half)


# ---------------------------------------------------------------------------
# vectors off the rank, and the int paths against the generic ones


_H = Fraction(1, 2)
_A1 = IntegralLattice.from_rows([[2]])
_OFF_RANK = {
    "cocycle-second": lambda: Cocycle(_A1).value([1], [1, 5]),
    "cocycle-first": lambda: Cocycle(_A1).value([1, 5], [1]),
    "pairing-second": lambda: _A1.pairing([1], [1, 7]),
    "pairing-first": lambda: _A1.pairing([1, 7], [1]),
    "contains": lambda: _A1.contains([1, 7]),
    "dual-exponent": lambda: DualCocycle(_A1).exponent([_H], [_H, 3]),
    "dual-commutator": lambda: DualCocycle(_A1).commutator_exponent([_H, 3], [_H]),
    "phase-mu0": lambda: intertwiner_phase_exponent(_A1, Cocycle(_A1), [_H], [_H], [_H, 5]),
}


@pytest.mark.parametrize("name", list(_OFF_RANK))
def test_vector_off_the_rank_is_refused(name):
    # each of these cut or ignored the extra entry: 1, 2, 0 and 0 for the
    # cocycle, the pairing, the dual exponent and the phase
    with pytest.raises(ValueError, match="the lattice has rank 1, got a vector of length 2"):
        _OFF_RANK[name]()


def test_cocycle_and_pairings_match_the_generic_path():
    rng = random.Random(31)
    refused = 0
    for rank in range(1, 7):
        for _ in range(4):
            lat = random_even_lattice(rng, rank)
            eps, dc = Cocycle(lat), DualCocycle(lat)
            db = lat.dual_basis()

            def lattice_vec():
                return [rng.randint(-4, 4) for _ in range(rank)]

            def dual_vec():
                ks = lattice_vec()
                return [sum((k * col[i] for k, col in zip(ks, db)), Fraction(0))
                        for i in range(rank)]

            for _ in range(60):
                a, b = lattice_vec(), lattice_vec()
                fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
                for x, y in ((a, b), (fa, fb), (a, fb), (fa, b)):
                    assert eps.value(x, y) == ref_cocycle_value(lat, x, y)
                x, y = dual_vec(), dual_vec()
                for u, v in ((a, b), (fa, fb), (x, y), (a, y), (x, fb)):
                    p = lat.pairing(u, v)
                    assert type(p) is Fraction and p == ref_pairing(lat, u, v)
                    e = dc.exponent(u, v)
                    assert type(e) is Fraction and e == ref_dual_exponent(dc, u, v)
                if not lat.contains(x):
                    refused += 1
                    for u, v in ((x, b), (a, x)):
                        with pytest.raises(ValueError, match="lattice vectors"):
                            eps.value(u, v)
                        with pytest.raises(ValueError, match="lattice vectors"):
                            ref_cocycle_value(lat, u, v)
    assert refused > 500
