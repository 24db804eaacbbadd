import math
from fractions import Fraction

import numpy as np
import pytest

from liefusion.heisenberg import (
    ChargeSpace,
    FockSpace,
    ModeMatrix,
    adjoint_phase_check,
    anticommutator_check,
    braid_phase_check,
    energy_bound_probe,
    heisenberg_mode,
    oscillator_mode,
    _exp_series,
    _fock_space,
    _mode_family,
)

UNIT = ChargeSpace([[1]])
TWO = ChargeSpace([[2]])


def test_fock_enumeration_matches_partitions():
    fk = FockSpace(UNIT, 8)
    partition_counts = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for level, count in enumerate(partition_counts):
        assert len(fk.levels[level]) == count


def test_fock_gram_orthogonal_rank_one():
    fk = FockSpace(TWO, 5)
    for level in range(6):
        g = fk.gram_block(level)
        for i in range(len(g)):
            for j in range(len(g)):
                if i != j:
                    assert g[i][j] == 0
                else:
                    assert g[i][i] > 0


def test_fock_gram_rank_two_exact():
    sp = ChargeSpace([[2, -1], [-1, 2]])
    fk = FockSpace(sp, 3)
    # single oscillators at level 1: <a_i(-1)v, a_j(-1)v> = gram
    g = fk.gram_block(1)
    assert g == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_exp_series_against_hand_expansion():
    # degree-2 creation piece: (a(-1)^2/2 + a(-2)/2) for a unit charge
    vac = {(): Fraction(1)}
    ds = _exp_series(UNIT, (Fraction(1),), vac, 2, -1)
    lvl2 = ds[2]
    assert lvl2[(((1, 0), 2),)] == Fraction(1, 2)
    assert lvl2[(((2, 0), 1),)] == Fraction(1, 2)


def _reference_family(space, alpha, cutoff):
    """E^-E^+ by the per-state recursion: E^- applied to each E^+ piece."""
    zero = Fraction(0)
    fk = _fock_space(space, cutoff)
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
                            [zero] * len(fk.levels[l])
                            for _ in range(len(fk.levels[lt]))
                        ]
                        fam[d][l] = blk
                    for st, c in ds[p].items():
                        blk[fk.index[lt][st]][ci] += c
    return fam


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
        fk = _fock_space(space, cutoff)
        ref = _reference_family(space, alpha, cutoff)
        fam = _mode_family(space, alpha, cutoff)
        assert set(ref) <= set(fam)
        for d in range(-cutoff, cutoff + 1):
            for l in range(cutoff + 1):
                if not 0 <= l + d <= cutoff:
                    assert l not in fam.get(d, {})
                    continue
                # a block the recursion never touched is a zero block
                zero = [[0] * len(fk.levels[l]) for _ in fk.levels[l + d]]
                assert fam[d][l] == ref.get(d, {}).get(l, zero), (cutoff, d, l)


def test_charged_mode_grading_and_lowest_element():
    # grading: a mode of index s shifts levels by -s - 1 - (a|mu)
    mm = heisenberg_mode(TWO, [1], [1], Fraction(-4), 5)
    assert mm.shift == 4 - 1 - 2  # -(-4) - 1 - (1|1)
    low = heisenberg_mode(TWO, [1], [0], Fraction(-1), 5)
    assert low.blocks[0][0][0] == 1
    assert low.source_charge == (Fraction(0),)
    assert low.target_charge == (Fraction(1),)
    # one charge-free Fock basis serves every sector at this cutoff
    assert low.space is mm.space is _fock_space(TWO, 5)


def test_zero_charge_modes_are_identity():
    mm = heisenberg_mode(TWO, [0], [0], Fraction(-1), 5)
    a = mm.float_matrix()
    assert np.allclose(a, np.eye(a.shape[0]))


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


def test_anticommutator_needs_unit_norm():
    with pytest.raises(ValueError, match="alpha"):
        anticommutator_check(TWO, [1], 4)


def test_vacuum_anticommutator_element():
    # n = m = 0 on the vacuum: the two terms sum to exactly 1
    blocks = oscillator_mode(UNIT, [1], 0, 4)
    assert blocks[0][0][0] == 1


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
    neg = ChargeSpace([[1, -1], [-1, 1]])
    with pytest.raises(ValueError, match="non-convergent"):
        braid_phase_check(neg, [1, 0], [0, 1], [0, 0], 6)
    with pytest.raises(ValueError, match="argument ordering"):
        braid_phase_check(UNIT, [1], [1], [1], 6, points=[(0.5, 1.0)])
