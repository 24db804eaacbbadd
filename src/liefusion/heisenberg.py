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

Orthogonal oscillator basis. The norms of the modes are unitary
invariants, so the Fock space may be built over any orthogonal basis of
the charge space; `ChargeSpace.basis` is the one Gram-Schmidt finds over Q,
u_0, u_1, ... with d_e = (u_e|u_e) > 0 (the given basis when the Gram is
diagonal). A state ((n, e), c), ... is the monomial prod u_e(-n)^c on the
vacuum, and a charge a is read through a_e = (a|u_e) / d_e, its coordinate
on u_e, and b_e = (a|u_e) = a_e d_e.

Closed form of E^-(a,x) E^+(a,x). Read the state prod u_e(-n)^{k_{n,e}} as
the monomial prod x_{n,e}^{k_{n,e}}. E^+ translates each variable,
x_{n,e} -> x_{n,e} - b_e, and E^- multiplies by exp(a_e x_{n,e} / n)
(with x = 1; the level shift of a block fixes the power of x). So the entry
from source counts k to target counts m factorizes over the modes (n, e):

    M[m, k] = prod_{(n,e)} f_{n,e}(k_{n,e}, m_{n,e}),
    f(k, m) = sum_{j <= min(k, m)} C(k, j) (-b_e)^{k-j} (a_e/n)^{m-j} / (m-j)!

(Frenkel-Lepowsky-Meurman, Vertex Operator Algebras and the Monster, 1988,
ch. 4; Kac, Vertex Algebras for Beginners, 1998, sec. 5). Each factor is
kept as an int, scaled by n^m m! den(a_e)^m den(b_e)^k, so an entry is
one int product over the modes, over a row denominator prod n^m m!
den(a_e)^m of the target state and a column denominator prod den(b_e)^k
of the source state. A block is built on demand per (level
shift, source level) as (numerators, den) over one common den, and
only its reader holds it.

Gram blocks. Distinct states are orthogonal, and the state
prod u_e(-n)^c has squared norm g = prod (n d_e)^c c!, so a level's Gram
block is diagonal: `FockSpace.gram_block` hands out its diagonal as a
(numerators, den) vector pair. Mode blocks are carried in linalg's one
exact matrix form, a (numerators, den) pair; a Gram adjoint
G_src^{-1} B^T G_tgt is B^T with its rows divided by g_src and its columns
multiplied by g_tgt, identities are tested exactly against delta * den,
and a float is made only for a reported deviation or a norm (`n / d` on
ints is correctly rounded, so it equals float(Fraction)). Rationals enter
through the charge space (its basis, the pivots d_e and the charge
pairings) and leave only as the braid check's leading coefficients.

Norms block by block. A mode of level shift d maps each source level l to
the single target level l + d, and distinct source levels to distinct
targets. In orthonormal coordinates (each state divided by its norm
sqrt(g), so the block B_l becomes diag(sqrt(g_{l+d})) B_l diag(1/sqrt(g_l)))
the mode is therefore the direct sum of its level blocks, and its operator
norm is the largest block norm; with (1 + L0)^{-r} on the right, block l is
scaled by (1 + l)^{-r}.
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
    """A rational inner-product space housing the charges.

    `basis` is an orthogonal basis u_0, u_1, ... of the space, found by
    Gram-Schmidt over Q in the given order: row e holds the coordinates of
    u_e, so the rows are unit lower-triangular, and `norms[e]` = (u_e|u_e)
    is the e-th pivot. For a diagonal Gram the basis is the given one. A
    Gram that is not positive definite has a pivot <= 0 and is refused with
    ValueError, as is a charge whose length is not the rank.
    """

    def __init__(self, gram):
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = len(self.gram)
        if any(len(r) != self.rank for r in self.gram):
            raise ValueError("gram must be square")
        if any(self.gram[i][j] != self.gram[j][i]
               for i in range(self.rank) for j in range(self.rank)):
            raise ValueError("gram must be symmetric")
        basis: list = []
        norms: list = []
        for e in range(self.rank):
            u = [ONE if j == e else ZERO for j in range(self.rank)]
            for v, d in zip(basis, norms):
                c = self.pairing(u, v) / d
                u = [x - c * y for x, y in zip(u, v)]
            d = self.pairing(u, u)
            if d <= 0:
                raise ValueError(
                    f"gram must be positive definite, got pivot {d} at row {e}")
            basis.append(tuple(u))
            norms.append(d)
        self.basis = tuple(basis)
        self.norms = tuple(norms)

    def pairing(self, a, b) -> Fraction:
        if len(a) != self.rank or len(b) != self.rank:
            raise ValueError(f"the charge space has rank {self.rank}, got charges "
                             f"of length {len(a)} and {len(b)}")
        return sum(
            (Fraction(a[i]) * self.gram[i][j] * Fraction(b[j])
             for i in range(self.rank) for j in range(self.rank)),
            ZERO,
        )

    def __eq__(self, other):
        return isinstance(other, ChargeSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)


# a Fock state is a sorted tuple of ((n, e), count), the monomial
# prod u_e(-n)^count on the vacuum; its level is sum n*count
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

    The states are monomials in the oscillators u_e(-n) of the space's
    orthogonal basis, so every Gram block is diagonal. The states and Gram
    blocks do not depend on the charge, so every charged sector of one
    space and cutoff shares one.
    """

    def __init__(self, space: ChargeSpace, cutoff: int):
        self.space = space
        self.levels = {l: _states(space.rank, l) for l in range(cutoff + 1)}
        # memos that live and die with this space
        self._gram_cache: dict = {}
        self._norm_cache: dict = {}

    def gram_block(self, level: int) -> tuple:
        """The diagonal of the level's Gram block as (numerators, den).

        u_e(n) u_e(-n) = n (u_e|u_e) + u_e(-n) u_e(n), and oscillators of
        different (n, e) commute and are orthogonal, so the state
        prod u_e(-n)^c has squared norm prod (n (u_e|u_e))^c c!.
        """
        blk = self._gram_cache.get(level)
        if blk is None:
            d = self.space.norms
            blk = self._gram_cache[level] = linalg.scaled_vector([
                math.prod((n * d[e]) ** c * math.factorial(c) for (n, e), c in state)
                for state in self.levels[level]])
        return blk

    def state_norms(self, level: int) -> np.ndarray:
        """The float norms of the level's states, the roots of its Gram diagonal."""
        r = self._norm_cache.get(level)
        if r is None:
            nums, den = self.gram_block(level)
            r = self._norm_cache[level] = np.sqrt(np.array([x / den for x in nums]))
        return r


class _ModeFamily:
    """E^-(a,x) E^+(a,x) for one charge: blocks {(shift, src level)} on demand.

    Mode i is (n, e) = (i // rank + 1, i % rank). The states of a level over
    the modes i, i+1, ... are listed by the count c of mode i, c = 1, 2, ...
    first and c = 0 last, each followed by the states of the rest; that is
    the sorted order of `_states`. A block over modes i, ... is therefore a
    grid of sub-blocks over modes i+1, ..., the (m, k) one scaled by the
    mode-i factor F(k, m), and each sub-block is built once and shared.
    The blocks do not depend on a cutoff. The family keeps the factors,
    the state denominators and the sub-blocks, which many blocks share; a
    whole block is assembled anew on each call and held only by its
    caller, since each reader reads it once.
    """

    def __init__(self, space: ChargeSpace, alpha):
        self.rank = space.rank
        # b_e = (a|u_e), and a_e = b_e / (u_e|u_e) is a's coordinate on u_e
        b = [space.pairing(alpha, u) for u in space.basis]
        a = [y / d for y, d in zip(b, space.norms)]
        self._a = [(x.numerator, x.denominator) for x in a]
        self._b = [(y.numerator, y.denominator) for y in b]
        self._factors: dict = {}   # (i, k, m) -> scaled f_{n,e}(k, m)
        self._dens: dict = {}      # (i, level) -> [(row den, col den)] per state
        self._scales: dict = {}    # level -> (row scales, row lcm, col scales, col lcm)
        self._subs: dict = {}      # (i, src level, tgt level) -> int rows, i >= 1

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
        rows = self._rows(0, level, level + shift)
        rs, lr, _, _ = self._level_scales(level + shift)
        _, _, cs, lc = self._level_scales(level)
        if lc == 1:
            nums = [[f * x for x in row] if f != 1 else row
                    for f, row in zip(rs, rows)]
        else:
            nums = [[f * x * c for x, c in zip(row, cs)]
                    for f, row in zip(rs, rows)]
        return nums, lr * lc


@dataclass
class ModeMatrix:
    """One mode of a charged intertwiner between truncated Fock bases."""

    shift: int
    blocks: dict            # src level -> (numerators, den), tgt rows x src cols
    space: FockSpace        # the Fock basis of both the source and the target

    def float_matrix(self) -> dict:
        """{source level: float block} in orthonormalized coordinates.

        The states are orthogonal, so dividing each by its norm makes a
        basis orthonormal: a block's rows are scaled by the target states'
        norms and its columns by the inverse norms of the source states.
        The mode maps level l only to level l + shift, and distinct source
        levels to distinct targets, so in orthonormal bases the operator is
        the direct sum of these blocks: its norm is the largest block norm.
        """
        out = {}
        for l, (nums, den) in self.blocks.items():
            b = np.array([[x / den for x in row] for row in nums])
            out[l] = ((self.space.state_norms(l + self.shift)[:, None] * b)
                      * (1 / self.space.state_norms(l)))
        return out


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
    s = Fraction(s)
    shift_f = -s - 1 - space.pairing(alpha, mu)
    if shift_f.denominator != 1:
        raise ValueError(f"mode {s} is off the charge grid for this sector")
    shift = int(shift_f)
    return ModeMatrix(shift, oscillator_mode(space, alpha, shift, cutoff),
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

    The adjoint G_src^{-1} B^T G_tgt maps level l + n back to l; with
    diagonal Gram blocks it is B^T with row i divided by g_src[i] and
    column j multiplied by g_tgt[j]. The result is keyed by its own source
    level (the original target); blocks in and out are (numerators, den).
    """
    out = {}
    for l, (nums, den) in blocks.items():
        lt = l + n
        gs, ds = fk.gram_block(l)
        gt, dt = fk.gram_block(lt)
        # 1 / g_src[i] = ds (m // gs[i]) / m over the lcm m of the gs
        m = math.lcm(*gs)
        out[lt] = ([[ds * (m // g) * x * y for x, y in zip(col, gt)]
                    for g, col in zip(gs, zip(*nums))], den * dt * m)
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

    Neither a block nor the norms of its states depend on the cutoff, so
    each mode is built once, at the largest cutoff, and a cutoff c takes
    the blocks whose source and target levels are both <= c: exactly the
    blocks the mode has at cutoff c, with the same norms.
    """
    cutoffs = probe_cutoffs(cutoffs)
    if max_abs_mode < 0:
        raise ValueError(f"max_abs_mode must be >= 0, got {max_abs_mode}")
    if not (math.isfinite(slack) and slack > 0):
        raise ValueError(f"slack must be finite and > 0, got {slack}")
    alpha = [Fraction(x) for x in alpha]
    mu = [ZERO] * space.rank
    norms: dict = {cut: {} for cut in cutoffs}
    # from the vacuum sector (mu = 0) the mode grid is the integers
    for s in range(-max_abs_mode, max_abs_mode + 1):
        mm = heisenberg_mode(space, alpha, mu, s, cutoffs[-1])
        scaled = [(max(l, l + mm.shift), (1 + l) ** -order * _power_norm(b))
                  for l, b in mm.float_matrix().items()]
        for cut in cutoffs:
            norms[cut][str(s)] = max((x for reach, x in scaled if reach <= cut),
                                     default=0.0)
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
    return {"max_deviation": worst, "entries_checked": checked, "phase": phase}


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


# (arg z1, arg z2) of the braid check's sample points on the unit circle,
# each with arg z2 < arg z1 < arg z2 + 2 pi
_BRAID_POINTS = ((2.1, 0.7), (3.0, 0.2), (4.4, 1.9))


def braid_phase_check(space: ChargeSpace, alpha, beta, gamma, cutoff: int) -> dict:
    """Ratio of the two orderings of the leading triple matrix element.

    Both orderings of <top| Y_alpha(z1) Y_beta(z2) |bottom> are evaluated
    through truncated mode sums at the points ``_BRAID_POINTS`` on the unit
    circle, and the ratio is compared to e^{i pi (alpha|beta)}. The
    factorization of each ordering against z1^(a|c) z2^(b|c) (z1-z2)^(a|b)
    is reported as well.
    """
    _check_cutoff(cutoff)
    alpha = [Fraction(x) for x in alpha]
    beta = [Fraction(x) for x in beta]
    gamma = [Fraction(x) for x in gamma]
    ab = space.pairing(alpha, beta)
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
    for th1, th2 in _BRAID_POINTS:
        z_pow = lambda th, t: cmath.exp(1j * th * float(t))
        w12 = cmath.exp(1j * (th2 - th1))
        f = z_pow(th1, abg) * z_pow(th2, bg) * sum(
            complex(float(c)) * w12 ** l for l, c in enumerate(cs)
        )
        w21 = cmath.exp(1j * (th1 - th2))
        g = z_pow(th2, bag) * z_pow(th1, ag) * sum(
            complex(float(c)) * w21 ** l for l, c in enumerate(ds)
        )
        worst = max(worst, abs(f / g - expected))
        # factorization: F = z1^(a|c) z2^(b|c) z1^(a|b) (1 - z2/z1)^(a|b)
        fact = (z_pow(th1, ag) * z_pow(th2, bg) * z_pow(th1, ab)
                * (1 - w12) ** float(ab))
        worst_fact = max(worst_fact, abs(f - fact))
    return {
        "max_deviation": worst,
        "expected_phase": expected,
        "factorization_deviation": worst_fact,
    }
