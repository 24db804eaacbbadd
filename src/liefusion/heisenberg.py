"""Truncated bosonic Fock spaces and charged-operator mode matrices.

States are oscillator multisets over a rational-Gram charge space; every
matrix element is computed in exact rational arithmetic and converted to
floats only for norm estimation. A product of two truncated modes is
trusted only on the interior index range where no intermediate state
exceeds the cutoff; boundary rows never enter a verdict.

Mode conventions. The full charged intertwiner uses the standard
x^{-s-1} expansion, so the mode of index s shifts the oscillator level by
-s - 1 - (alpha|mu). The bare oscillator operator E^-E^+ is expanded in
x^{+n}, matching the anticommutator identity it satisfies at (a|a) = 1.

Closed form of E^-(a,x) E^+(a,x). Read the state prod h_e(-n)^{k_{n,e}} as
the monomial prod x_{n,e}^{k_{n,e}}. E^+ translates each variable,
x_{n,e} -> x_{n,e} - (a|h_e), and E^- multiplies by exp(a_e x_{n,e} / n)
(with x = 1; the level shift of a block fixes the power of x). So the entry
from source counts k to target counts m factorizes over the modes (n, e):

    M[m, k] = prod_{(n,e)} f_{n,e}(k_{n,e}, m_{n,e}),
    f(k, m) = sum_{j <= min(k, m)} C(k, j) (-(a|h_e))^{k-j} (a_e/n)^{m-j} / (m-j)!

(Frenkel-Lepowsky-Meurman, Vertex Operator Algebras and the Monster, 1988,
ch. 4; Kac, Vertex Algebras for Beginners, 1998, sec. 5). Each factor is
kept as an int, scaled by n^m m! den(a_e)^m den((a|h_e))^k, so an entry is
one int product over the modes, over a row denominator prod n^m m!
den(a_e)^m of the target state and a column denominator prod
den((a|h_e))^k of the source state. A block is built on demand per (level
shift, source level) and held as (numerators, den) over one common den.

Mode blocks, Gram blocks (`FockSpace.gram_block`) and their inverses are
all carried in linalg's one exact matrix form, a (numerators, den) pair;
Gram adjoints are `linalg.matmul` products of pairs, identities are tested
exactly against delta * den, and a float is made only for a reported
deviation or a norm (`n / d` on ints is correctly rounded, so it equals
float(Fraction)). Rationals enter through the charge space (a Gram block
is summed in Fractions, then scaled once to its pair) and leave only as the
charge pairings and the braid check's leading coefficients.

Norms block by block. A mode of level shift d maps each source level l to
the single target level l + d, and distinct source levels to distinct
targets. In orthonormal coordinates (L_{l+d}^T B_l L_l^{-T}, with L the
Cholesky factor of a level's Gram block) the mode is therefore the direct
sum of its level blocks, and its operator norm is the largest block norm;
with (1 + L0)^{-r} on the right, block l is scaled by (1 + l)^{-r}.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InvariantError

ZERO = Fraction(0)
ONE = Fraction(1)


class ChargeSpace:
    """A rational inner-product space housing the charges."""

    def __init__(self, gram):
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = len(self.gram)
        if any(len(r) != self.rank for r in self.gram):
            raise ValueError("gram must be square")
        if any(self.gram[i][j] != self.gram[j][i]
               for i in range(self.rank) for j in range(self.rank)):
            raise ValueError("gram must be symmetric")

    def pairing(self, a, b) -> Fraction:
        return sum(
            (Fraction(a[i]) * self.gram[i][j] * Fraction(b[j])
             for i in range(self.rank) for j in range(self.rank)),
            ZERO,
        )

    def __eq__(self, other):
        return isinstance(other, ChargeSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)


# a Fock state is a sorted tuple of ((n, dir), count); level = sum n*count
def _level(state) -> int:
    return sum(n * c for (n, _), c in state)


def _states(rank: int, level: int):
    """All oscillator multisets of the given level."""

    def fill(rem, modes, i, acc, sink):
        if rem == 0:
            sink.append(tuple(sorted(acc)))
            return
        if i == len(modes):
            return
        n, d = modes[i]
        for c in range(rem // n, -1, -1):
            fill(rem - n * c, modes, i + 1,
                 acc + ([((n, d), c)] if c else []), sink)

    res: list = []
    modes = [(n, d) for n in range(level, 0, -1) for d in range(rank)]
    fill(level, modes, 0, [], res)
    return sorted(res)


class FockSpace:
    """Truncated Fock space over a charge space: states graded by level.

    The states, Gram blocks and their factorizations do not depend on the
    charge, so every charged sector of one space and cutoff shares one.
    """

    def __init__(self, space: ChargeSpace, cutoff: int):
        self.space = space
        self.cutoff = cutoff
        self.levels = {l: _states(space.rank, l) for l in range(cutoff + 1)}
        # memos that live and die with this space
        self._inner_cache: dict = {}
        self._gram_cache: dict = {}
        self._inverse_cache: dict = {}
        self._chol_cache: dict = {}

    def _inner(self, s1, s2) -> Fraction:
        """Inner product of two states whose oscillators share one mode n."""
        if not s1:
            return ONE if not s2 else ZERO
        if _level(s1) != _level(s2):
            return ZERO
        if (s1, s2) in self._inner_cache:
            return self._inner_cache[s1, s2]
        (n, d), c = s1[0]
        rest1 = _strip(s1, (n, d))
        tot = ZERO
        for (m, e), c2 in s2:
            if m != n:
                continue
            q = self.space.gram[d][e]
            if not q:
                continue
            tot += c2 * n * q * self._inner(rest1, _strip(s2, (m, e)))
        self._inner_cache[s1, s2] = tot
        return tot

    def gram_block(self, level: int) -> tuple:
        """The level's Gram block as (numerators, den)."""
        if level in self._gram_cache:
            return self._gram_cache[level]
        # oscillators of different modes n commute past each other, so an
        # entry is the product over n of the inner products of the n-parts
        parts = [_mode_parts(state) for state in self.levels[level]]
        k = len(parts)
        g = [[ZERO] * k for _ in range(k)]
        for i, pi in enumerate(parts):
            for j in range(i, k):
                pj = parts[j]
                if pi.keys() == pj.keys():
                    x = ONE
                    for n, sub in pi.items():
                        x *= self._inner(sub, pj[n])
                        if not x:
                            break
                    g[i][j] = g[j][i] = x
        blk = self._gram_cache[level] = linalg.scaled(g)
        return blk

    def gram_inverse(self, level: int) -> tuple:
        """Exact inverse of the level's Gram block as (numerators, den)."""
        if level not in self._inverse_cache:
            # G = nums / den, so G^-1 = den inv(nums)
            nums, den = self.gram_block(level)
            inv, d = linalg.inverse(nums)
            self._inverse_cache[level] = [[den * x for x in row] for row in inv], d
        return self._inverse_cache[level]

    def cholesky(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Float Cholesky factor L of the level's Gram block, and inv(L).T."""
        if level not in self._chol_cache:
            l = _chol(self.gram_block(level))
            self._chol_cache[level] = (l, _inv_t(l))
        return self._chol_cache[level]


def _mode_parts(state) -> dict:
    """{n: the oscillators of mode n} of a state."""
    parts: dict = {}
    for item in state:
        parts.setdefault(item[0][0], []).append(item)
    return {n: tuple(sub) for n, sub in parts.items()}


def _strip(state, mode):
    out = []
    for key, c in state:
        if key == mode:
            if c > 1:
                out.append((key, c - 1))
        else:
            out.append((key, c))
    return tuple(out)


class _ModeFamily:
    """E^-(a,x) E^+(a,x) for one charge: blocks {(shift, src level)} on demand.

    Mode i is (n, e) = (i // rank + 1, i % rank). The states of a level over
    the modes i, i+1, ... are listed by the count c of mode i, c = 1, 2, ...
    first and c = 0 last, each followed by the states of the rest; that is
    the sorted order of `_states`. A block over modes i, ... is therefore a
    grid of sub-blocks over modes i+1, ..., the (m, k) one scaled by the
    mode-i factor F(k, m), and each sub-block is built once and shared.
    The blocks do not depend on a cutoff.
    """

    def __init__(self, space: ChargeSpace, alpha):
        self.rank = space.rank
        unit = lambda e: [int(d == e) for d in range(self.rank)]
        self._a = [(x.numerator, x.denominator) for x in alpha]
        self._b = [(y.numerator, y.denominator)
                   for y in (space.pairing(alpha, unit(e)) for e in range(self.rank))]
        self._factors: dict = {}   # (i, k, m) -> scaled f_{n,e}(k, m)
        self._dens: dict = {}      # (i, level) -> [(row den, col den)] per state
        self._scales: dict = {}    # level -> (row scales, row lcm, col scales, col lcm)
        self._subs: dict = {}      # (i, src level, tgt level) -> int rows, i >= 1
        self._blocks: dict = {}    # (shift, src level) -> (numerators, den)

    def _mode(self, i: int) -> tuple[int, int]:
        n, e = divmod(i, self.rank)
        return n + 1, e

    def _factor(self, i: int, k: int, m: int) -> int:
        key = (i, k, m)
        f = self._factors.get(key)
        if f is None:
            n, e = self._mode(i)
            an, ad = self._a[e]
            bn, bd = self._b[e]
            f = self._factors[key] = sum(
                math.comb(k, j) * (-bn) ** (k - j) * bd ** j
                * an ** (m - j) * (ad * n) ** j * math.perm(m, j)
                for j in range(min(k, m) + 1)
            )
        return f

    def _states_dens(self, i: int, level: int) -> list:
        """(row den, col den) of each state of the level over modes i, i+1, ..."""
        if level == 0:
            return [(1, 1)]
        key = (i, level)
        out = self._dens.get(key)
        if out is None:
            n, e = self._mode(i)
            out = []
            if n <= level:
                ad = self._a[e][1]
                bd = self._b[e][1]
                for c in (*range(1, level // n + 1), 0):
                    rc = n ** c * math.factorial(c) * ad ** c
                    cc = bd ** c
                    out += [(rc * r, cc * s)
                            for r, s in self._states_dens(i + 1, level - c * n)]
            self._dens[key] = out
        return out

    def _sub(self, i: int, ls: int, lt: int) -> list:
        key = (i, ls, lt)
        rows = self._subs.get(key)
        if rows is None:
            rows = self._subs[key] = self._rows(i, ls, lt)
        return rows

    def _rows(self, i: int, ls: int, lt: int) -> list:
        """Int products over modes i, ... of the (level lt) x (level ls) states."""
        if ls == 0 and lt == 0:
            return [[1]]
        n, _ = self._mode(i)
        width = lambda l: len(self._states_dens(i + 1, l))
        ks = [k for k in (*range(1, ls // n + 1), 0) if width(ls - k * n)]
        rows = []
        for m in (*range(1, lt // n + 1), 0):
            lt2 = lt - m * n
            height = width(lt2)
            if not height:
                continue
            parts = []
            for k in ks:
                f = self._factor(i, k, m)
                parts.append((f, self._sub(i + 1, ls - k * n, lt2) if f
                              else [0] * width(ls - k * n)))
            for r in range(height):
                row = []
                for f, sub in parts:
                    if not f:
                        row += sub
                    elif f == 1:
                        row += sub[r]
                    else:
                        row += [f * x for x in sub[r]]
                rows.append(row)
        return rows

    def _level_scales(self, level: int) -> tuple:
        sc = self._scales.get(level)
        if sc is None:
            dens = self._states_dens(0, level)
            lr = math.lcm(*(r for r, _ in dens))
            lc = math.lcm(*(c for _, c in dens))
            sc = self._scales[level] = (
                [lr // r for r, _ in dens], lr, [lc // c for _, c in dens], lc)
        return sc

    def block(self, shift: int, level: int) -> tuple[list, int]:
        """(numerators, den) of the block from `level` to `level + shift`."""
        key = (shift, level)
        blk = self._blocks.get(key)
        if blk is None:
            rows = self._rows(0, level, level + shift)
            rs, lr, _, _ = self._level_scales(level + shift)
            _, _, cs, lc = self._level_scales(level)
            if lc == 1:
                nums = [[f * x for x in row] if f != 1 else row
                        for f, row in zip(rs, rows)]
            else:
                nums = [[f * x * c for x, c in zip(row, cs)]
                        for f, row in zip(rs, rows)]
            blk = self._blocks[key] = (nums, lr * lc)
        return blk


@dataclass
class ModeMatrix:
    """One mode of a charged intertwiner between truncated Fock bases."""

    source_charge: tuple
    target_charge: tuple
    shift: int
    blocks: dict            # src level -> (numerators, den), tgt rows x src cols
    space: FockSpace        # the Fock basis of both the source and the target

    def float_matrix(self) -> dict:
        """{source level: float block} in orthonormalized coordinates.

        The mode maps level l only to level l + shift, and distinct source
        levels to distinct targets, so in orthonormal bases the operator is
        the direct sum of these blocks: its norm is the largest block norm.
        """
        out = {}
        for l, (nums, den) in self.blocks.items():
            ls_inv_t = self.space.cholesky(l)[1]
            ltm = self.space.cholesky(l + self.shift)[0]
            b = np.array([[x / den for x in row] for row in nums])
            out[l] = ltm.T @ b @ ls_inv_t
        return out


def _chol(g) -> np.ndarray:
    nums, den = g
    m = np.array([[x / den for x in row] for row in nums])
    return np.linalg.cholesky(m) if m.size else np.zeros((0, 0))


def _inv_t(l) -> np.ndarray:
    if l.size == 0:
        return l
    return np.linalg.inv(l).T


@lru_cache(maxsize=64)
def _fock_space(space: ChargeSpace, cutoff: int) -> FockSpace:
    return FockSpace(space, cutoff)


@lru_cache(maxsize=32)
def _mode_family(space: ChargeSpace, alpha: tuple) -> _ModeFamily:
    """The block family of E^-(a,x) E^+(a,x); every cutoff shares it."""
    return _ModeFamily(space, alpha)


def heisenberg_mode(space: ChargeSpace, alpha, mu, s, cutoff: int) -> ModeMatrix:
    """Matrix of the mode Y_alpha(s): charge-mu Fock -> charge-(alpha+mu).

    The operator is the vacuum-primary intertwiner c_a E^-(a,x) E^+(a,x)
    x^{(a|mu)}; its mode of index s shifts levels by -s - 1 - (a|mu).
    """
    alpha = tuple(Fraction(x) for x in alpha)
    mu = tuple(Fraction(x) for x in mu)
    s = Fraction(s)
    shift_f = -s - 1 - space.pairing(alpha, mu)
    if shift_f.denominator != 1:
        raise ValueError(f"mode {s} is off the charge grid for this sector")
    shift = int(shift_f)
    return ModeMatrix(mu, tuple(a + m for a, m in zip(alpha, mu)),
                      shift, oscillator_mode(space, alpha, shift, cutoff),
                      _fock_space(space, cutoff))


def oscillator_mode(space: ChargeSpace, alpha, n: int, cutoff: int) -> dict:
    """Level-shift-n piece of the bare operator E^-(a,x) E^+(a,x).

    Returns blocks {src_level: (numerators, den)} for every source level
    whose target lies within the cutoff; they are charge independent.
    """
    fam = _mode_family(space, tuple(Fraction(x) for x in alpha))
    return {l: fam.block(n, l) for l in range(cutoff + 1) if 0 <= l + n <= cutoff}


def _check_cutoff(cutoff: int) -> None:
    """A negative cutoff leaves no state to check: a usage error."""
    if cutoff < 0:
        raise ValueError(f"the cutoff must be >= 0, got {cutoff}")


def _block_adjoint(blocks: dict, fk: FockSpace, n: int) -> dict:
    """Exact Gram adjoint of a level-shift-n block family: shifts by -n.

    The result is keyed by its own source level (the original target);
    blocks in and out are (numerators, den).
    """
    out = {}
    for l, (nums, den) in blocks.items():
        lt = l + n
        # adjoint: G_src^{-1} B^T G_tgt, mapping level lt -> l
        out[lt] = linalg.matmul(
            fk.gram_inverse(l),
            linalg.matmul((linalg.transpose(nums), den), fk.gram_block(lt)),
        )
    return out


def anticommutator_check(space: ChargeSpace, alpha, cutoff: int) -> dict:
    """Deviation of M(n)M(m)* + M(m-1)*M(n-1) from delta_{nm} on the
    interior blocks, where M(k) is the level-shift-k oscillator mode.

    Exact rational evaluation; the returned deviation is the float maximum
    over interior entries (0 when the identity holds). Boundary columns
    are counted separately, never judged.
    """
    if space.pairing(alpha, alpha) != 1:
        raise ValueError("the anticommutator identity needs (alpha|alpha) = 1")
    _check_cutoff(cutoff)

    fk = _fock_space(space, cutoff)
    max_mode = cutoff // 2
    modes = {}
    for k in range(-max_mode - 1, max_mode + 2):
        modes[k] = oscillator_mode(space, alpha, k, cutoff)
    adj = {k: _block_adjoint(modes[k], fk, k) for k in modes}

    worst = 0.0
    interior_cols = 0
    boundary_cols = 0
    for n in range(-max_mode, max_mode + 1):
        for m in range(-max_mode, max_mode + 1):
            for l in range(cutoff + 1):
                tgt_level = l - m + n
                if not 0 <= tgt_level <= cutoff:
                    continue
                # intermediates: l - m (term 1) and l + n - 1 (term 2);
                # a negative intermediate is a genuine zero, above the
                # cutoff is a truncation artifact
                if l - m > cutoff or l + n - 1 > cutoff:
                    boundary_cols += len(fk.levels[l])
                    continue
                interior_cols += len(fk.levels[l])
                terms = []
                a_blk = adj[m].get(l)
                if a_blk is not None and (l - m) in modes[n]:
                    terms.append(linalg.matmul(modes[n][l - m], a_blk))
                b_blk = modes[n - 1].get(l)
                if b_blk is not None and (l + n - 1) in adj.get(m - 1, {}):
                    terms.append(linalg.matmul(adj[m - 1][l + n - 1], b_blk))
                rows = len(fk.levels[tgt_level])
                cols = len(fk.levels[l])
                # the sum of the terms minus delta, over the common den
                den = math.lcm(1, *(d for _, d in terms))
                acc = [[0] * cols for _ in range(rows)]
                for nums, d in terms:
                    f = den // d
                    acc = [[x + f * y for x, y in zip(ra, rt)]
                           for ra, rt in zip(acc, nums)]
                if n == m:
                    for r in range(rows):
                        acc[r][r] -= den
                top = max((abs(x) for row in acc for x in row), default=0)
                worst = max(worst, top / den)
    return {
        "max_deviation": worst,
        "interior_columns": interior_cols,
        "boundary_columns_excluded": boundary_cols,
    }


def _power_norm(a: np.ndarray) -> float:
    """Largest singular value (spectral norm), by LAPACK's SVD."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass
class EnergyBoundReport:
    order: int
    cutoffs: tuple
    norms: dict          # cutoff -> {mode index: norm of Y(s) (1+L0)^{-r}}
    maxima: dict         # cutoff -> max over modes
    slack: float
    verdict: str         # "PASS" | "FAIL"


def probe_cutoffs(cutoffs) -> tuple:
    """The cutoffs of an energy-bound probe, sorted; no cutoff, or a
    negative one, is a usage error (ValueError)."""
    cutoffs = tuple(sorted(cutoffs))
    if not cutoffs or cutoffs[0] < 0:
        raise ValueError(f"the probe needs cutoffs >= 0, got {list(cutoffs)}")
    return cutoffs


def energy_bound_probe(space: ChargeSpace, alpha, order: int, cutoffs,
                       max_abs_mode: int = 6,
                       slack: float = 1.05) -> EnergyBoundReport:
    """Norm trend of Y_alpha(s)(1 + L0)^{-order} across cutoffs.

    For each cutoff the norms are maximized over the modes |s| <=
    max_abs_mode; the verdict is PASS when the cutoff maxima are
    non-increasing beyond the smallest cutoff within the slack factor. A
    FAIL is data, not an error. (1 + L0)^{-order} is the scalar
    (1 + l)^{-order} on source level l, so a mode's norm is the largest
    scaled block norm, 0 when no block lies within the cutoff.
    """
    cutoffs = probe_cutoffs(cutoffs)
    if max_abs_mode < 0:
        raise ValueError(f"max_abs_mode must be >= 0, got {max_abs_mode}")
    if not (math.isfinite(slack) and slack > 0):
        raise ValueError(f"slack must be finite and > 0, got {slack}")
    alpha = [Fraction(x) for x in alpha]
    mu = [ZERO] * space.rank
    norms: dict = {}
    for cut in cutoffs:
        per: dict = {}
        # from the vacuum sector (mu = 0) the mode grid is the integers
        for s in range(-max_abs_mode, max_abs_mode + 1):
            blocks = heisenberg_mode(space, alpha, mu, s, cut).float_matrix()
            per[str(s)] = max(((1 + l) ** -order * _power_norm(b)
                               for l, b in blocks.items()), default=0.0)
        norms[cut] = per
    maxima = {cut: max(per.values()) for cut, per in norms.items()}
    verdict = "PASS"
    for lo, hi in zip(cutoffs, cutoffs[1:]):
        if maxima[hi] > slack * maxima[lo]:
            verdict = "FAIL"
    return EnergyBoundReport(order, cutoffs, norms, maxima, slack, verdict)


def adjoint_phase_check(space: ChargeSpace, alpha, beta, cutoff: int) -> dict:
    """Adjoint relation between the charge and its negative, with phase.

    Compares e^{i pi (a|a)/2} times the Gram adjoint of each interior mode
    of Y_alpha (measured between the beta and alpha+beta sectors), against
    e^{i pi (a|a)/2} times the matching mode of Y_{-alpha}; the adjoint
    convention fixes the mode pairing s -> (a|a) - 2 - s. Both sides are
    exact and the phase has modulus 1, so the reported deviation is the
    largest exact entry difference, 0 when the relation holds.
    """
    _check_cutoff(cutoff)
    alpha = [Fraction(x) for x in alpha]
    beta = [Fraction(x) for x in beta]
    aa = space.pairing(alpha, alpha)
    delta = aa / 2
    phase = cmath.exp(1j * math.pi * float(delta))
    neg = [-x for x in alpha]
    apb = [a + b for a, b in zip(alpha, beta)]
    fk = _fock_space(space, cutoff)

    worst = 0.0
    checked = 0
    for shift_back in range(-cutoff, cutoff + 1):
        # mode of Y_{-alpha} with level shift shift_back, source charge a+b
        s_prime = -Fraction(shift_back) - 1 - space.pairing(neg, apb)
        s = 2 * delta - 2 - s_prime
        fwd = heisenberg_mode(space, alpha, beta, s, cutoff)
        bwd = heisenberg_mode(space, neg, apb, s_prime, cutoff)
        if fwd.shift != -shift_back:
            raise InvariantError(
                f"mode grading mismatch: Y_alpha({s}) shifts levels by "
                f"{fwd.shift}, its partner Y_-alpha({s_prime}) by {shift_back}")
        adj = _block_adjoint(fwd.blocks, fk, fwd.shift)
        for l, (nums, den) in bwd.blocks.items():
            other = adj.get(l)
            if other is None:
                continue
            o_nums, o_den = other
            top = max((abs(x * den - y * o_den)
                       for o_row, row in zip(o_nums, nums)
                       for x, y in zip(o_row, row)), default=0)
            worst = max(worst, top / (den * o_den))
            checked += len(nums) * len(nums[0])
    return {"max_deviation": worst, "entries_checked": checked,
            "phase": phase, "phase_exponent_half_turns": float(delta)}


def _leading_coefficients(space: ChargeSpace, first, second, cutoff: int):
    """c_l = <vac| U_l(first) D_l(second) |vac>, exact rationals.

    A sum over the level-l states of the E^+(first) vacuum factor (the
    level -l block of E^-E^+(first) from level l) times the E^-(second)
    creation factor (its level-l block from the vacuum).
    """
    up = _mode_family(space, tuple(first))
    down = _mode_family(space, tuple(second))
    out = []
    for l in range(cutoff + 1):
        (u_row,), u_den = up.block(-l, l)
        d_col, d_den = down.block(l, 0)
        out.append(Fraction(sum(x * y for x, (y,) in zip(u_row, d_col)),
                            u_den * d_den))
    return out


def braid_phase_check(space: ChargeSpace, alpha, beta, gamma, cutoff: int,
                      points=None) -> dict:
    """Ratio of the two orderings of the leading triple matrix element.

    Both orderings of <top| Y_alpha(z1) Y_beta(z2) |bottom> are evaluated
    through truncated mode sums on the unit circle with
    arg z2 < arg z1 < arg z2 + 2 pi, and the ratio is compared to
    e^{i pi (alpha|beta)}. The factorization of each ordering against
    z1^(a|c) z2^(b|c) (z1-z2)^(a|b) is reported as well.
    """
    _check_cutoff(cutoff)
    alpha = [Fraction(x) for x in alpha]
    beta = [Fraction(x) for x in beta]
    gamma = [Fraction(x) for x in gamma]
    ab = space.pairing(alpha, beta)
    if points is None:
        points = [(2.1, 0.7), (3.0, 0.2), (4.4, 1.9)]
    if ab < 0:
        raise ValueError(
            "non-convergent configuration: equal-modulus contours need a "
            "nonnegative charge pairing"
        )
    cs = _leading_coefficients(space, alpha, beta, cutoff)
    ds = _leading_coefficients(space, beta, alpha, cutoff)

    ag = space.pairing(alpha, gamma)
    bg = space.pairing(beta, gamma)
    abg = space.pairing(alpha, [b + g for b, g in zip(beta, gamma)])
    bag = space.pairing(beta, [a + g for a, g in zip(alpha, gamma)])

    expected = cmath.exp(1j * math.pi * float(ab))
    worst = 0.0
    worst_fact = 0.0
    details = []
    for th1, th2 in points:
        if not th2 < th1 < th2 + 2 * math.pi:
            raise ValueError("sample point violates the argument ordering")
        z_pow = lambda th, t: cmath.exp(1j * th * float(t))
        w12 = cmath.exp(1j * (th2 - th1))
        f = z_pow(th1, abg) * z_pow(th2, bg) * sum(
            complex(float(c)) * w12 ** l for l, c in enumerate(cs)
        )
        w21 = cmath.exp(1j * (th1 - th2))
        g = z_pow(th2, bag) * z_pow(th1, ag) * sum(
            complex(float(c)) * w21 ** l for l, c in enumerate(ds)
        )
        ratio = f / g
        worst = max(worst, abs(ratio - expected))
        # factorization: F = z1^(a|c) z2^(b|c) z1^(a|b) (1 - z2/z1)^(a|b)
        fact = (z_pow(th1, ag) * z_pow(th2, bg) * z_pow(th1, ab)
                * (1 - w12) ** float(ab))
        worst_fact = max(worst_fact, abs(f - fact))
        details.append({"z1_arg": th1, "z2_arg": th2, "ratio": ratio})
    return {
        "max_deviation": worst,
        "expected_phase": expected,
        "factorization_deviation": worst_fact,
        "points": details,
    }
