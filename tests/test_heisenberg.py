import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liefusion import heisenberg
from liefusion.heisenberg import (
    ChargeSpace,
    FockSpace,
    adjoint_phase_check,
    anticommutator_check,
    braid_phase_check,
    energy_bound_probe,
    heisenberg_mode,
    oscillator_mode,
    _fock_space,
    _leading_coefficients,
    _mode_family,
)

ZERO = Fraction(0)

UNIT = ChargeSpace([[1]])
TWO = ChargeSpace([[2]])


def test_fock_enumeration_matches_partitions():
    fk = FockSpace(UNIT, 8)
    partition_counts = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for level, count in enumerate(partition_counts):
        assert len(fk.levels[level]) == count


# Reference: the Gram blocks of the monomials in the oscillators h_d(-n) of
# a basis with a given Gram, by the pairing recursion the Fock layer used
# before it moved to an orthogonal basis.

def _strip(state, mode):
    """The state with one oscillator of the given mode (n, d) removed."""
    out = []
    for key, c in state:
        if key == mode:
            if c > 1:
                out.append((key, c - 1))
        else:
            out.append((key, c))
    return tuple(out)


def _reference_gram(gram, states):
    """The full Fraction Gram matrix of the states, read as monomials in h_d(-n).

    <h_d(-n) s1, s2> = <s1, h_d(n) s2>, and h_d(n) removes one oscillator
    h_e(-n) of s2 at a time, each of its c copies giving n (h_d|h_e).
    """
    memo = {}

    def inner(s1, s2):
        if not s1:
            return Fraction(int(not s2))
        if sum(n * c for (n, _), c in s1) != sum(n * c for (n, _), c in s2):
            return ZERO
        if (s1, s2) not in memo:
            (n, d), _ = s1[0]
            rest = _strip(s1, (n, d))
            memo[s1, s2] = sum(
                (c2 * n * Fraction(gram[d][e]) * inner(rest, _strip(s2, (m, e)))
                 for (m, e), c2 in s2 if m == n and gram[d][e]),
                ZERO)
        return memo[s1, s2]

    return [[inner(s1, s2) for s2 in states] for s1 in states]


def _assert_gram_is_the_orthogonal_diagonal(space, cutoff):
    # the charge Gram in the basis u_e is diag(norms), and over it the
    # reference recursion builds exactly the diagonal gram_block hands out
    b = [[Fraction(x) for x in row] for row in space.basis]
    gram_u = [[space.pairing(u, v) for v in b] for u in b]
    assert gram_u == [[d if i == j else ZERO for j, _ in enumerate(space.norms)]
                      for i, d in enumerate(space.norms)]
    fk = FockSpace(space, cutoff)
    for level, states in fk.levels.items():
        nums, den = fk.gram_block(level)
        diag = [Fraction(x, den) for x in nums]
        assert _reference_gram(gram_u, states) == [
            [g if i == j else ZERO for j in range(len(diag))]
            for i, g in enumerate(diag)]
        assert all(g > 0 for g in diag)


def test_fock_gram_orthogonal_rank_one():
    assert TWO.basis == ((1,),) and TWO.norms == (2,)
    _assert_gram_is_the_orthogonal_diagonal(TWO, 5)


def test_fock_gram_rank_two_exact():
    sp = ChargeSpace([[2, -1], [-1, 2]])
    # u_0 = h_0, u_1 = h_1 + h_0 / 2 with (u_1|u_1) = 3/2
    assert sp.basis == ((1, 0), (Fraction(1, 2), 1))
    assert sp.norms == (2, Fraction(3, 2))
    _assert_gram_is_the_orthogonal_diagonal(sp, 3)
    # single h-oscillators at level 1: <h_i(-1)v, h_j(-1)v> = gram
    g = _reference_gram(sp.gram, FockSpace(sp, 3).levels[1])
    assert g == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]


@st.composite
def _rank_two_grams(draw):
    p, q = draw(_positive_fraction), draw(_positive_fraction)
    r = draw(_small_fraction)
    return [[p, r], [r, q]]


@settings(max_examples=60, deadline=None)
@given(_rank_two_grams())
def test_charge_basis_is_orthogonal_and_unit_lower_triangular(gram):
    (p, r), (_, q) = gram
    if r * r >= p * q:
        with pytest.raises(ValueError, match="positive definite"):
            ChargeSpace(gram)
        return
    sp = ChargeSpace(gram)
    (u00, u01), (u10, u11) = sp.basis
    assert (u00, u01, u11) == (1, 0, 1)
    assert sp.pairing(sp.basis[0], sp.basis[1]) == 0
    assert sp.norms == (p, q - r * r / p)
    assert [sp.pairing(u, u) for u in sp.basis] == list(sp.norms)
    assert all(d > 0 for d in sp.norms)


@pytest.mark.parametrize("gram", [
    [[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[-1]],
    [[2, -1, 0], [-1, 2, -2], [0, -2, 2]],
])
def test_charge_space_rejects_a_gram_that_is_not_positive_definite(gram):
    with pytest.raises(ValueError, match="gram must be positive definite"):
        ChargeSpace(gram)


# Reference: the per-state exponential-series recursion that built the mode
# blocks before the closed form, kept here to check the closed form against.
# It works in the monomial h-basis of the given charge coordinates.

def _annihilate(space, lam, n, vec):
    """lambda(n) for n > 0 on a vector over Fock states."""
    out = {}
    pair = [space.pairing(lam, [1 if k == d else 0 for k in range(space.rank)])
            for d in range(space.rank)]
    for state, coef in vec.items():
        for (m, d), c in state:
            if m != n:
                continue
            q = pair[d]
            if not q:
                continue
            val = coef * c * n * q
            if val:
                s2 = _strip(state, (m, d))
                out[s2] = out.get(s2, ZERO) + val
                if not out[s2]:
                    del out[s2]
    return out


def _create(space, lam, n, vec):
    """lambda(-n) for n > 0."""
    out = {}
    lam = [Fraction(x) for x in lam]
    for state, coef in vec.items():
        for d in range(space.rank):
            if not lam[d]:
                continue
            items = dict(state)
            items[(n, d)] = items.get((n, d), 0) + 1
            s2 = tuple(sorted(items.items()))
            out[s2] = out.get(s2, ZERO) + coef * lam[d]
            if not out[s2]:
                del out[s2]
    return out


def _exp_series(space, lam, vec, pmax, side):
    """Graded pieces of E^-(lam, x) (side=-1) or E^+(lam, x) (side=+1).

    Returns [T_0 v, T_1 v, ...] where T_p is the degree-p coefficient:
    T_p = (1/p) sum_m c_m T_{p-m} with c_m = lam(-m) resp. -lam(m).
    """
    out = [dict(vec)]
    for p in range(1, pmax + 1):
        acc = {}
        for m in range(1, p + 1):
            prev = out[p - m]
            if not prev:
                continue
            if side < 0:
                term = _create(space, lam, m, prev)
            else:
                term = _annihilate(space, [-x for x in lam], m, prev)
            for s, c in term.items():
                acc[s] = acc.get(s, ZERO) + c
        out.append({s: c / p for s, c in acc.items() if c})
    return out


def _exact(block):
    nums, den = block
    return [[Fraction(x, den) for x in row] for row in nums]


def test_exp_series_against_hand_expansion():
    # degree-2 creation piece: (a(-1)^2/2 + a(-2)/2) for a unit charge
    vac = {(): Fraction(1)}
    ds = _exp_series(UNIT, (Fraction(1),), vac, 2, -1)
    lvl2 = ds[2]
    assert lvl2[(((1, 0), 2),)] == Fraction(1, 2)
    assert lvl2[(((2, 0), 1),)] == Fraction(1, 2)


@lru_cache(maxsize=None)
def _reference_family(space, alpha, cutoff):
    """E^-E^+ by the per-state recursion: E^- applied to each E^+ piece."""
    fk = _fock_space(space, cutoff)
    index = {l: {s: i for i, s in enumerate(states)} for l, states in fk.levels.items()}
    fam = {}
    for l in range(cutoff + 1):
        for ci, state in enumerate(fk.levels[l]):
            us = _exp_series(space, alpha, {state: Fraction(1)}, l, +1)
            for q in range(0, l + 1):
                if not us[q]:
                    continue
                pmax = cutoff - (l - q)
                ds = _exp_series(space, alpha, us[q], pmax, -1)
                for p in range(0, pmax + 1):
                    if not ds[p]:
                        continue
                    d = p - q
                    lt = l + d
                    blk = fam.setdefault(d, {}).get(l)
                    if blk is None:
                        blk = [
                            [ZERO] * len(fk.levels[l])
                            for _ in range(len(fk.levels[lt]))
                        ]
                        fam[d][l] = blk
                    for st, c in ds[p].items():
                        blk[index[lt][st]][ci] += c
    return fam


def _ldl(g):
    """G = L D L^T in Fractions: L unit lower triangular, D the diagonal."""
    n = len(g)
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = []
    for j in range(n):
        diag.append(g[j][j] - sum(low[j][k] ** 2 * diag[k] for k in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (g[i][j] - sum(low[i][k] * low[j][k] * diag[k] for k in range(j))) / diag[j]
    return low, diag


def _unit_lower_inverse(low):
    n = len(low)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(low[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _int_matrix(rows):
    """A Fraction matrix as (an object array of ints, their common den)."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return np.array([[x.numerator * (den // x.denominator) for x in row] for row in rows],
                    dtype=object), den


@lru_cache(maxsize=None)
def _h_basis_blocks(space, alpha, cutoff):
    """{(shift, level): float block} of E^-E^+(alpha) in orthonormal
    coordinates, built entirely in the monomial h-basis: the per-state
    recursion's blocks B and the reference Gram blocks G = L D L^T, whose
    Cholesky factors are L sqrt(D). L_tgt^T B L_src^{-T} is taken exactly
    and scaled by sqrt(D_tgt) and sqrt(D_src)^{-1} only as floats, which
    keeps the reference accurate on the ill-conditioned Grams of a skew
    charge space (a float Cholesky of a level-5 Gram of condition 2e6 is
    off by 5e-12)."""
    fk = _fock_space(space, cutoff)
    ref = _reference_family(space, alpha, cutoff)
    frames = {}
    for l, states in fk.levels.items():
        low, diag = _ldl(_reference_gram(space.gram, states))
        frames[l] = (_int_matrix(low), _int_matrix(_unit_lower_inverse(low)),
                     np.sqrt([float(x) for x in diag]))
    out = {}
    for d in range(-cutoff, cutoff + 1):
        for l in range(max(0, -d), min(cutoff, cutoff - d) + 1):
            ((lt, lt_den), _, sqrt_dt), (_, (ls_inv, ls_den), sqrt_ds) = frames[l + d], frames[l]
            blk = ref.get(d, {}).get(l)
            if blk is None:
                out[d, l] = np.zeros((len(lt), len(ls_inv)))
                continue
            b, b_den = _int_matrix(blk)
            den = lt_den * b_den * ls_den
            x = np.array([[v / den for v in row] for row in lt.T @ b @ ls_inv.T])
            out[d, l] = sqrt_dt[:, None] * x / sqrt_ds
    return out


def _assert_family_matches_reference(space, alpha, cutoff):
    fk = _fock_space(space, cutoff)
    ref = _reference_family(space, alpha, cutoff)
    fam = _mode_family(space, alpha)
    diagonal = all(not space.gram[i][j] for i in range(space.rank)
                   for j in range(space.rank) if i != j)
    for d in range(-cutoff, cutoff + 1):
        blocks = oscillator_mode(space, alpha, d, cutoff)
        assert set(blocks) == {l for l in range(cutoff + 1) if 0 <= l + d <= cutoff}
        for l, blk in blocks.items():
            assert blk == fam.block(d, l)
            if diagonal:
                # the orthogonal basis is the given one, so the blocks agree
                # exactly; a block the recursion never touched is a zero block
                zero = [[0] * len(fk.levels[l]) for _ in fk.levels[l + d]]
                assert _exact(blk) == ref.get(d, {}).get(l, zero), (cutoff, d, l)
    # across the two bases the orthonormalized blocks differ by orthogonal
    # changes of basis, so their singular values agree
    want = _h_basis_blocks(space, alpha, cutoff)
    zero = [0] * space.rank
    for d in range(-cutoff, cutoff + 1):
        got = heisenberg_mode(space, alpha, zero, -d - 1, cutoff).float_matrix()
        assert sorted(got) == [l for dd, l in want if dd == d]
        for l, b in got.items():
            sv = np.linalg.svd(b, compute_uv=False)
            ref_sv = np.linalg.svd(want[d, l], compute_uv=False)
            top = max(ref_sv[0], 1.0)
            assert math.isclose(sv[0], ref_sv[0], rel_tol=1e-12, abs_tol=1e-12), (d, l)
            assert np.allclose(sv, ref_sv, rtol=1e-12, atol=1e-12 * top), (d, l)


@pytest.mark.parametrize("gram, alpha, cutoffs", [
    ([[1]], (1,), (0, 1, 4, 6, 8)),
    ([[2]], (1,), (3, 5, 8)),
    ([[2]], (-1,), (6,)),
    ([[2]], (Fraction(1, 2),), (6,)),
    ([[Fraction(1, 2)]], (Fraction(3, 2),), (7,)),
    ([[1, 0], [0, 1]], (1, -1), (4, 6)),
    ([[2, -1], [-1, 2]], (Fraction(1, 3), 1), (4,)),
])
def test_mode_family_matches_per_state_recursion(gram, alpha, cutoffs):
    space = ChargeSpace(gram)
    alpha = tuple(Fraction(x) for x in alpha)
    for cutoff in cutoffs:
        _assert_family_matches_reference(space, alpha, cutoff)


_small_fraction = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 4))
_positive_fraction = st.builds(
    Fraction, st.integers(1, 5), st.integers(1, 4))


@st.composite
def _charge_configurations(draw):
    rank = draw(st.integers(1, 2))
    if rank == 1:
        gram = [[draw(_positive_fraction)]]
        cutoff = draw(st.integers(0, 6))
    else:
        p, q = draw(_positive_fraction), draw(_positive_fraction)
        # off-diagonal entry r with r^2 < p q keeps the Gram positive definite
        r = draw(_small_fraction.filter(lambda r: r * r < p * q))
        gram = [[p, r], [r, q]]
        cutoff = draw(st.integers(0, 5))
    alpha = tuple(draw(_small_fraction) for _ in range(rank))
    return gram, alpha, cutoff


@settings(max_examples=40, deadline=None)
@given(_charge_configurations())
def test_mode_family_matches_reference_on_random_charges(config):
    gram, alpha, cutoff = config
    _assert_family_matches_reference(ChargeSpace(gram), alpha, cutoff)


def _series_leading_coefficients(space, first, second, cutoff):
    """<vac| U_l(first) D_l(second) |vac> through the reference series."""
    vac = {(): Fraction(1)}
    ds = _exp_series(space, second, vac, cutoff, -1)
    out = []
    for l in range(cutoff + 1):
        us = _exp_series(space, first, ds[l], l, +1) if ds[l] else None
        out.append(us[l].get((), ZERO) if us else ZERO)
    return out


def _binomial_coefficients(x, cutoff):
    """Coefficients of (1 - z)^x: (-1)^l C(x, l)."""
    out = []
    for l in range(cutoff + 1):
        num = Fraction(1)
        for i in range(l):
            num *= i - x
        out.append(num / math.factorial(l))
    return out


@pytest.mark.parametrize("gram, first, second", [
    ([[1]], (1,), (1,)),
    ([[1, 0], [0, 1]], (1, 0), (0, 1)),
    ([[1, 0], [0, 1]], (0, 1), (1, 0)),
    ([[2]], (1,), (1,)),
    ([[Fraction(7, 5)]], (Fraction(1, 2),), (Fraction(2, 3),)),
    # non-diagonal Grams: the coefficients are basis-free
    ([[2, -1], [-1, 2]], (1, 0), (0, 1)),
    ([[2, -1], [-1, 2]], (1, 1), (1, 0)),
    ([[2, 1], [1, 2]], (1, 0), (0, 1)),
    ([[2, 1], [1, 2]], (1, -1), (Fraction(1, 2), 1)),
])
def test_leading_coefficients_match_series_and_binomial(gram, first, second):
    space = ChargeSpace(gram)
    first = tuple(Fraction(x) for x in first)
    second = tuple(Fraction(x) for x in second)
    got = _leading_coefficients(space, first, second, 12)
    assert got == _series_leading_coefficients(space, first, second, 12)
    assert got == _binomial_coefficients(space.pairing(first, second), 12)


def test_charged_mode_grading_and_lowest_element():
    # grading: a mode of index s shifts levels by -s - 1 - (a|mu)
    mm = heisenberg_mode(TWO, [1], [1], Fraction(-4), 5)
    assert mm.shift == 4 - 1 - 2  # -(-4) - 1 - (1|1)
    low = heisenberg_mode(TWO, [1], [0], Fraction(-1), 5)
    assert _exact(low.blocks[0])[0][0] == 1
    assert low.source_charge == (Fraction(0),)
    assert low.target_charge == (Fraction(1),)
    # one charge-free Fock basis serves every sector at this cutoff
    assert low.space is mm.space is _fock_space(TWO, 5)


def test_zero_charge_modes_are_identity():
    mm = heisenberg_mode(TWO, [0], [0], Fraction(-1), 5)
    blocks = mm.float_matrix()
    assert sorted(blocks) == list(range(6))
    for b in blocks.values():
        assert np.allclose(b, np.eye(b.shape[0]))


def test_off_grid_mode_rejected():
    sp = ChargeSpace([[1]])
    with pytest.raises(ValueError, match="grid"):
        heisenberg_mode(sp, [1], [Fraction(1, 2)], Fraction(-1), 4)


def test_charge_conservation():
    mm = heisenberg_mode(TWO, [1], [2], Fraction(-3), 4)
    assert mm.target_charge == (Fraction(3),)
    # nonzero entries only between the stated sectors: encoded by block map
    assert all(0 <= l + mm.shift <= 4 for l in mm.blocks)


def test_anticommutator_identity_exact():
    for cutoff in (6, 8):
        rep = anticommutator_check(UNIT, [1], cutoff)
        assert rep["max_deviation"] == 0.0
        assert rep["interior_columns"] > 0
        assert rep["boundary_columns_excluded"] > 0


def test_anticommutator_identity_exact_on_a_non_orthogonal_gram():
    # (alpha|alpha) = 1 on a Gram whose orthogonal basis is not the given
    # one: the modes and their Gram adjoints live over u_0 = h_0 and
    # u_1 = h_1 - h_0 / 2, and the identity still holds exactly
    sp = ChargeSpace([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert sp.basis == ((1, 0), (Fraction(-1, 2), 1))
    rep = anticommutator_check(sp, [1, 0], 6)
    assert rep == {"max_deviation": 0.0, "interior_columns": 3475,
                   "boundary_columns_excluded": 897}


def _perturbed(blocks, level):
    """A copy of a block family with one numerator of one block moved by 1."""
    blocks = dict(blocks)
    nums, den = blocks[level]
    nums = [row[:] for row in nums]
    nums[0][0] += 1
    blocks[level] = (nums, den)
    return blocks


def test_anticommutator_judges_a_perturbed_block(monkeypatch):
    true_mode = heisenberg.oscillator_mode

    def perturbed(space, alpha, n, cutoff):
        blocks = true_mode(space, alpha, n, cutoff)
        return _perturbed(blocks, 0) if n == 1 else blocks

    monkeypatch.setattr(heisenberg, "oscillator_mode", perturbed)
    assert anticommutator_check(UNIT, [1], 6)["max_deviation"] > 0
    monkeypatch.undo()
    assert anticommutator_check(UNIT, [1], 6)["max_deviation"] == 0.0


def test_adjoint_phase_judges_a_perturbed_block(monkeypatch):
    true_mode = heisenberg.heisenberg_mode

    def perturbed(space, alpha, mu, s, cutoff):
        mm = true_mode(space, alpha, mu, s, cutoff)
        if mm.shift == 1 and alpha[0] > 0:
            mm.blocks = _perturbed(mm.blocks, 0)
        return mm

    monkeypatch.setattr(heisenberg, "heisenberg_mode", perturbed)
    assert adjoint_phase_check(TWO, [1], [1], 6)["max_deviation"] > 0
    monkeypatch.undo()
    assert adjoint_phase_check(TWO, [1], [1], 6)["max_deviation"] == 0.0


def test_anticommutator_needs_unit_norm():
    with pytest.raises(ValueError, match="alpha"):
        anticommutator_check(TWO, [1], 4)


def test_vacuum_anticommutator_element():
    # n = m = 0 on the vacuum: the two terms sum to exactly 1
    blocks = oscillator_mode(UNIT, [1], 0, 4)
    assert _exact(blocks[0])[0][0] == 1


def _dense_probe_norms(space, alpha, order, cutoff, max_abs_mode):
    """Per-mode norms of the probe through one dense matrix per mode.

    The reference for the block-by-block norms, built in the monomial
    h-basis (`_h_basis_blocks`): every level block is placed in one
    zero-padded matrix over all Fock states, the columns of source level l
    are scaled by (1 + l)^{-order}, and the norm is a full SVD.
    """
    fk = _fock_space(space, cutoff)
    blocks = _h_basis_blocks(space, tuple(Fraction(x) for x in alpha), cutoff)
    sizes = [len(fk.levels[l]) for l in range(cutoff + 1)]
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    out = {}
    for s in range(-max_abs_mode, max_abs_mode + 1):
        # from the vacuum sector the mode of index s shifts levels by -s - 1
        shift = -s - 1
        a = np.zeros((off[-1], off[-1]))
        for (d, l), b in blocks.items():
            if d == shift:
                lt = l + d
                a[off[lt]:off[lt + 1], off[l]:off[l + 1]] = b
        for l in range(cutoff + 1):
            a[:, off[l]:off[l + 1]] *= (1.0 + l) ** (-order)
        out[str(s)] = float(np.linalg.norm(a, 2))
    return out


@pytest.mark.parametrize("gram, alpha, cutoffs, max_abs_mode", [
    ([[1]], (1,), (4, 8), 4),
    ([[2]], (1,), (5, 8), 4),
    ([[1, 0], [0, 1]], (1, -1), (3, 6), 4),
    ([[2, 1], [1, 2]], (1, 0), (4, 6), 4),
])
def test_block_norms_match_dense_reference(gram, alpha, cutoffs, max_abs_mode):
    space = ChargeSpace(gram)
    for order in (0, 1, 2):
        rep = energy_bound_probe(space, alpha, order, cutoffs, max_abs_mode)
        for cut in cutoffs:
            want = _dense_probe_norms(space, alpha, order, cut, max_abs_mode)
            assert list(rep.norms[cut]) == list(want)
            for s, norm in rep.norms[cut].items():
                assert math.isclose(norm, want[s], rel_tol=1e-12), (order, cut, s)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("gram, alpha, cutoffs", [
    ([[1]], (1,), (3, 5, 8)),
    ([[2]], (1,), (3, 5, 8)),
    ([[2, -1], [-1, 2]], (1, 0), (2, 4, 6)),
])
def test_probe_norms_match_a_probe_at_each_cutoff_alone(gram, alpha, cutoffs, order):
    # the probe builds every mode at its largest cutoff and reads a smaller
    # one's norms off those blocks; a probe at that cutoff alone builds the
    # mode there, and the two agree float for float
    space = ChargeSpace(gram)
    rep = energy_bound_probe(space, alpha, order, cutoffs, max_abs_mode=6)
    assert any(v == 0.0 for v in rep.norms[cutoffs[0]].values())
    for cut in cutoffs:
        alone = energy_bound_probe(space, alpha, order, (cut,), max_abs_mode=6)
        assert list(rep.norms[cut].items()) == list(alone.norms[cut].items())
        assert rep.maxima[cut] == alone.maxima[cut]


def test_probe_builds_each_mode_once_at_the_top_cutoff(monkeypatch):
    true_mode = heisenberg.heisenberg_mode
    calls = []

    def counted(space, alpha, mu, s, cutoff):
        calls.append((s, cutoff))
        return true_mode(space, alpha, mu, s, cutoff)

    monkeypatch.setattr(heisenberg, "heisenberg_mode", counted)
    energy_bound_probe(TWO, [1], 1, (5, 3, 4), max_abs_mode=3)
    assert calls == [(s, 5) for s in range(-3, 4)]


@pytest.mark.parametrize("norm", [1, 2, 3, 4])
def test_vacuum_column_matches_the_closed_form(norm):
    # ||Y_a(-n) vac||^2 = C(n + N - 2, N - 1) at charge norm (a|a) = N: the
    # mode maps the vacuum to level n - 1, so at cutoff n - 1 its one block
    # is the vacuum's column, read exactly against the diagonal Gram there
    space = ChargeSpace([[norm]])
    for n in range(1, 13):
        mm = heisenberg_mode(space, [1], [0], -n, n - 1)
        assert list(mm.blocks) == [0]
        col, den = mm.blocks[0]
        g, g_den = mm.space.gram_block(n - 1)
        square = Fraction(sum(x * x * y for (x,), y in zip(col, g)), den * den * g_den)
        assert square == math.comb(n + norm - 2, norm - 1), (norm, n)


@pytest.mark.parametrize("kwargs", [
    {"cutoffs": (), "max_abs_mode": 2},
    {"cutoffs": (-1, 4), "max_abs_mode": 2},
    {"cutoffs": (3, 4), "max_abs_mode": -1},
])
def test_energy_probe_rejects_an_empty_window(kwargs):
    with pytest.raises(ValueError):
        energy_bound_probe(UNIT, [1], 0, **kwargs)


@pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf, 0.0, -1.05])
def test_energy_probe_rejects_a_slack_that_is_not_finite_and_positive(slack):
    # a NaN slack makes every comparison false and an infinite one makes
    # every maximum fit, so either would report a vacuous PASS
    with pytest.raises(ValueError, match="slack must be finite and > 0"):
        energy_bound_probe(TWO, [1], 0, (4, 6), max_abs_mode=3, slack=slack)
    # the same probe at a finite slack sees the growth and FAILs
    assert energy_bound_probe(TWO, [1], 0, (4, 6), max_abs_mode=3).verdict == "FAIL"


def test_anticommutator_check_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        anticommutator_check(UNIT, [1], -1)


def test_adjoint_phase_check_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        adjoint_phase_check(TWO, [1], [1], -1)


def test_braid_phase_check_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        braid_phase_check(UNIT, [1], [1], [2], -1)


def test_energy_probe_negative_control_charge_two_order_zero():
    # the order-0 norms grow with the cutoff at (alpha|alpha) = 2, so the
    # probe must FAIL at the default cutoffs and mode window
    rep = energy_bound_probe(TWO, [1], 0, (8, 12, 16), max_abs_mode=6)
    assert rep.verdict == "FAIL"
    want = {8: math.sqrt(10), 12: 4.0, 16: math.sqrt(20)}
    assert rep.maxima == pytest.approx(want, rel=1e-12)


def test_energy_probe_identity_charge():
    rep = energy_bound_probe(TWO, [0], 0, (3, 5), max_abs_mode=2)
    assert rep.verdict == "PASS"
    assert all(abs(v - 1.0) < 1e-12 for v in rep.maxima.values())


def test_energy_probe_trend_unit_charge():
    rep = energy_bound_probe(UNIT, [1], 0, (4, 6, 8), max_abs_mode=4)
    assert rep.verdict == "PASS"
    # fermionic modes have unit norm at every cutoff
    assert all(abs(v - 1.0) < 1e-9 for v in rep.maxima.values())


def test_adjoint_phase_relation():
    rep = adjoint_phase_check(TWO, [1], [1], 8)
    assert rep["max_deviation"] <= 1e-10
    assert abs(rep["phase"] - (-1)) < 1e-12  # e^{i pi} at squared norm 2
    rep0 = adjoint_phase_check(TWO, [0], [1], 5)
    assert rep0["max_deviation"] <= 1e-12
    repq = adjoint_phase_check(ChargeSpace([[Fraction(7, 5)]]), [1], [1], 6)
    assert repq["max_deviation"] <= 1e-10


def test_braid_phases():
    r0 = braid_phase_check(ChargeSpace([[1, 0], [0, 1]]), [1, 0], [0, 1], [1, 1], 8)
    assert r0["max_deviation"] <= 1e-9
    assert abs(r0["expected_phase"] - 1) < 1e-12
    r1 = braid_phase_check(UNIT, [1], [1], [2], 12)
    assert r1["max_deviation"] <= 1e-9
    assert abs(r1["expected_phase"] + 1) < 1e-12
    r2 = braid_phase_check(TWO, [1], [1], [1], 12)
    assert r2["max_deviation"] <= 1e-9
    assert abs(r2["expected_phase"] - 1) < 1e-12


def test_braid_factorization_verified():
    rep = braid_phase_check(UNIT, [1], [1], [3], 10)
    assert rep["factorization_deviation"] <= 1e-9


def test_braid_rejects_bad_configuration():
    # the A2 root lattice: (alpha|beta) = -1 for the two simple roots
    neg = ChargeSpace([[2, -1], [-1, 2]])
    with pytest.raises(ValueError, match="non-convergent"):
        braid_phase_check(neg, [1, 0], [0, 1], [0, 0], 6)
    with pytest.raises(ValueError, match="argument ordering"):
        braid_phase_check(UNIT, [1], [1], [1], 6, points=[(0.5, 1.0)])


def _heisenberg_claims():
    """{claim id: (status, detail)} of `check_heisenberg` at small cutoffs.

    At these cutoffs the order-1 energy trend has not settled and FAILs.
    """
    import liefusion.verify as verify

    report = verify.VerificationReport("h")
    verify.check_heisenberg(report, cutoffs=(2, 3), anti_cutoffs=(2,),
                            phase_cutoff=4)
    return {r.claim_id: (r.status, r.detail) for r in report.results}


def test_braid_phase_claim_sees_a_raised_leading_coefficient(monkeypatch):
    true_coefficients = heisenberg._leading_coefficients

    def raised(space, first, second, cutoff):
        cs = true_coefficients(space, first, second, cutoff)
        cs[1] += 1
        return cs

    # only the braid-phase verdict reads the leading coefficients
    before = _heisenberg_claims()
    assert before["braid-phase"][0] == "pass"
    monkeypatch.setattr(heisenberg, "_leading_coefficients", raised)
    after = _heisenberg_claims()
    assert after.pop("braid-phase")[0] == "fail"
    del before["braid-phase"]
    assert after == before


def test_anticommutator_claim_sees_a_perturbed_block(monkeypatch):
    true_mode = heisenberg.oscillator_mode

    def perturbed(space, alpha, n, cutoff):
        blocks = true_mode(space, alpha, n, cutoff)
        return _perturbed(blocks, 0) if n == 1 and space == UNIT else blocks

    before = _heisenberg_claims()
    assert before["anticommutator"] == ("pass", "cutoff 2: dev 0.00e+00")
    assert before["energy-bound-order0"] == ("pass", "maxima {2: 1.0, 3: 1.0}")
    monkeypatch.setattr(heisenberg, "oscillator_mode", perturbed)
    # the order-0 probe of the unit charge reads the raised block too: its
    # maxima double at every cutoff, so its trend still PASSes
    assert _heisenberg_claims() == {
        **before,
        "anticommutator": ("fail", "cutoff 2: dev 3.00e+00"),
        "energy-bound-order0": ("pass", "maxima {2: 2.0, 3: 2.0}"),
    }


def test_adjoint_phase_claim_sees_a_perturbed_block(monkeypatch):
    true_mode = heisenberg.heisenberg_mode

    def perturbed(space, alpha, mu, s, cutoff):
        mm = true_mode(space, alpha, mu, s, cutoff)
        # off the vacuum sector, which only the adjoint-phase check reads
        if mm.shift == 1 and alpha[0] > 0 and any(mu):
            mm.blocks = _perturbed(mm.blocks, 0)
        return mm

    before = _heisenberg_claims()
    assert before["adjoint-phase"] == ("pass", "dev 0.00e+00, phase -1.000+0.000j")
    monkeypatch.setattr(heisenberg, "heisenberg_mode", perturbed)
    assert _heisenberg_claims() == {
        **before, "adjoint-phase": ("fail", "dev 2.00e+00, phase -1.000+0.000j")}
