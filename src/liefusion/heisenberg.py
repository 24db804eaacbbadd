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
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

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
        self.index = {
            l: {s: i for i, s in enumerate(states)} for l, states in self.levels.items()
        }
        # memos that live and die with this space
        self._inner_cache: dict = {}
        self._gram_cache: dict = {}
        self._gram_inv_cache: dict = {}
        self._chol_cache: dict = {}

    def _inner(self, s1, s2) -> Fraction:
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

    def gram_block(self, level: int):
        if level in self._gram_cache:
            return self._gram_cache[level]
        states = self.levels[level]
        k = len(states)
        g = [[ZERO] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                g[i][j] = g[j][i] = self._inner(states[i], states[j])
        self._gram_cache[level] = g
        return g

    def gram_inverse(self, level: int):
        """Exact inverse of the level's Gram block."""
        from . import linalg

        if level not in self._gram_inv_cache:
            self._gram_inv_cache[level] = linalg.inverse(self.gram_block(level))
        return self._gram_inv_cache[level]

    def cholesky(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Float Cholesky factor L of the level's Gram block, and inv(L).T."""
        if level not in self._chol_cache:
            l = _chol(self.gram_block(level))
            self._chol_cache[level] = (l, _inv_t(l))
        return self._chol_cache[level]


def _strip(state, mode):
    out = []
    for key, c in state:
        if key == mode:
            if c > 1:
                out.append((key, c - 1))
        else:
            out.append((key, c))
    return tuple(out)


def _annihilate(space: ChargeSpace, lam, n: int, vec: dict) -> dict:
    """lambda(n) for n > 0 on a vector over Fock states."""
    out: dict = {}
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


def _create(space: ChargeSpace, lam, n: int, vec: dict) -> dict:
    """lambda(-n) for n > 0."""
    out: dict = {}
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


def _exp_series(space, lam, vec, pmax, side) -> list[dict]:
    """Graded pieces of E^-(lam, x) (side=-1) or E^+(lam, x) (side=+1).

    Returns [T_0 v, T_1 v, ...] where T_p is the degree-p coefficient:
    T_p = (1/p) sum_m c_m T_{p-m} with c_m = lam(-m) resp. -lam(m).
    """
    out = [dict(vec)]
    for p in range(1, pmax + 1):
        acc: dict = {}
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


@dataclass
class ModeMatrix:
    """One mode of a charged intertwiner between truncated Fock bases."""

    source_charge: tuple
    target_charge: tuple
    mode_index: Fraction
    shift: int
    cutoff: int
    blocks: dict            # src level -> exact Matrix (tgt rows x src cols)
    space: FockSpace        # the Fock basis of both the source and the target
    boundary_src_levels: tuple

    def float_matrix(self) -> np.ndarray:
        """Dense float matrix in orthonormalized coordinates."""
        sizes = [len(self.space.levels[l]) for l in range(self.cutoff + 1)]
        total = sum(sizes)
        a = np.zeros((total, total))
        off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        for l, blk in self.blocks.items():
            lt = l + self.shift
            if not (0 <= lt <= self.cutoff):
                continue
            ls_inv_t = self.space.cholesky(l)[1]
            ltm = self.space.cholesky(lt)[0]
            b = np.array([[float(x) for x in row] for row in blk])
            a[off[lt]:off[lt + 1], off[l]:off[l + 1]] = ltm.T @ b @ ls_inv_t
        return a


def _chol(g) -> np.ndarray:
    m = np.array([[float(x) for x in row] for row in g])
    return np.linalg.cholesky(m) if m.size else np.zeros((0, 0))


def _inv_t(l) -> np.ndarray:
    if l.size == 0:
        return l
    return np.linalg.inv(l).T


@lru_cache(maxsize=64)
def _fock_space(space: ChargeSpace, cutoff: int) -> FockSpace:
    return FockSpace(space, cutoff)


@lru_cache(maxsize=32)
def _mode_family(space: ChargeSpace, alpha, cutoff: int) -> dict:
    """All level-shift components of E^-(a,x) E^+(a,x) in one pass.

    Returns {shift: {src_level: Matrix}}, one block for every source level
    whose target level lies in [0, cutoff] (all-zero blocks included).
    Every mode of the charged intertwiner reads off one shift, so the
    exponential-series work is shared across the whole mode range.

    The graded pieces U_q: level l -> l - q of E^+ and D_p: level k -> k + p
    of E^- are built as block matrices from one exponential series per
    basis state and side. The shift-d block at source level l is then one
    stacked product over the valid q:
        [D_{q+d}(l-q) | ...] . [U_q(l); ...]
    """
    from . import linalg

    fk = _fock_space(space, cutoff)
    sizes = [len(fk.levels[l]) for l in range(cutoff + 1)]
    # up[l][q]: U_q at source level l; down[k][p]: D_p at source level k
    up: list = []
    down: list = []
    for k in range(cutoff + 1):
        u = [[[ZERO] * sizes[k] for _ in range(sizes[k - q])] for q in range(k + 1)]
        dn = [[[ZERO] * sizes[k] for _ in range(sizes[k + p])]
              for p in range(cutoff - k + 1)]
        for ci, state in enumerate(fk.levels[k]):
            for q, piece in enumerate(_exp_series(space, alpha, {state: ONE}, k, +1)):
                for st, c in piece.items():
                    u[q][fk.index[k - q][st]][ci] = c
            for p, piece in enumerate(
                    _exp_series(space, alpha, {state: ONE}, cutoff - k, -1)):
                for st, c in piece.items():
                    dn[p][fk.index[k + p][st]][ci] = c
        up.append(u)
        down.append(dn)

    fam: dict = {}
    for d in range(-cutoff, cutoff + 1):
        for l in range(max(0, -d), min(cutoff, cutoff - d) + 1):
            qs = range(max(0, -d), l + 1)
            left = [
                [x for q in qs for x in down[l - q][q + d][r]]
                for r in range(sizes[l + d])
            ]
            right = [row for q in qs for row in up[l][q]]
            fam.setdefault(d, {})[l] = linalg.matmul(left, right)
    return fam


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
    fk = _fock_space(space, cutoff)
    boundary = tuple(
        l for l in range(cutoff + 1) if not 0 <= l + shift <= cutoff
    )
    fam = _mode_family(space, alpha, cutoff)
    blocks = {
        l: blk for l, blk in fam.get(shift, {}).items()
    }
    for l in range(cutoff + 1):
        lt = l + shift
        if 0 <= lt <= cutoff and l not in blocks:
            blocks[l] = [
                [ZERO] * len(fk.levels[l]) for _ in range(len(fk.levels[lt]))
            ]
    return ModeMatrix(mu, tuple(a + m for a, m in zip(alpha, mu)),
                      s, shift, cutoff, blocks, fk, boundary)


def oscillator_mode(space: ChargeSpace, alpha, n: int, cutoff: int) -> dict:
    """Level-shift-n piece of the bare operator E^-(a,x) E^+(a,x).

    Returns blocks {src_level: Matrix}; the blocks are charge independent.
    """
    alpha = tuple(Fraction(x) for x in alpha)
    fk = _fock_space(space, cutoff)
    fam = _mode_family(space, alpha, cutoff)
    blocks = dict(fam.get(n, {}))
    for l in range(cutoff + 1):
        lt = l + n
        if 0 <= lt <= cutoff and l not in blocks:
            blocks[l] = [
                [ZERO] * len(fk.levels[l]) for _ in range(len(fk.levels[lt]))
            ]
    return blocks


def _block_adjoint(blocks: dict, fk: FockSpace, n: int, cutoff: int) -> dict:
    """Exact Gram adjoint of a level-shift-n block family: shifts by -n.

    The result is keyed by its own source level (the original target).
    """
    from . import linalg

    out = {}
    for l, blk in blocks.items():
        lt = l + n
        if not 0 <= lt <= cutoff:
            continue
        # adjoint: G_src^{-1} B^T G_tgt, mapping level lt -> l
        out[lt] = linalg.matmul(
            fk.gram_inverse(l),
            linalg.matmul(linalg.transpose(blk), fk.gram_block(lt)),
        )
    return out


def anticommutator_check(space: ChargeSpace, alpha, cutoff: int,
                         max_mode: int | None = None) -> dict:
    """Deviation of M(n)M(m)* + M(m-1)*M(n-1) from delta_{nm} on the
    interior blocks, where M(k) is the level-shift-k oscillator mode.

    Exact rational evaluation; the returned deviation is the float maximum
    over interior entries (0 when the identity holds). Boundary columns
    are counted separately, never judged.
    """
    if space.pairing(alpha, alpha) != 1:
        raise ValueError("the anticommutator identity needs (alpha|alpha) = 1")
    from . import linalg

    fk = _fock_space(space, cutoff)
    max_mode = cutoff // 2 if max_mode is None else max_mode
    modes = {}
    for k in range(-max_mode - 1, max_mode + 2):
        modes[k] = oscillator_mode(space, alpha, k, cutoff)
    adj = {k: _block_adjoint(modes[k], fk, k, cutoff) for k in modes}

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
                t1 = None
                a_blk = adj[m].get(l)
                if a_blk is not None and (l - m) in modes[n]:
                    t1 = linalg.matmul(modes[n][l - m], a_blk)
                t2 = None
                b_blk = modes[n - 1].get(l)
                if b_blk is not None and (l + n - 1) in adj.get(m - 1, {}):
                    t2 = linalg.matmul(adj[m - 1][l + n - 1], b_blk)
                rows = len(fk.levels[tgt_level])
                cols = len(fk.levels[l])
                acc = [[ZERO] * cols for _ in range(rows)]
                for t in (t1, t2):
                    if t is not None:
                        for r in range(rows):
                            for c in range(cols):
                                acc[r][c] += t[r][c]
                if n == m:
                    for r in range(rows):
                        acc[r][r] -= 1
                dev = max(
                    (abs(float(acc[r][c])) for r in range(rows) for c in range(cols)),
                    default=0.0,
                )
                worst = max(worst, dev)
    return {
        "max_deviation": worst,
        "interior_columns": interior_cols,
        "boundary_columns_excluded": boundary_cols,
    }


def _power_norm(a: np.ndarray, tol: float = 1e-8, maxit: int = 5000) -> float:
    """Largest singular value by power iteration on A^T A, deterministic."""
    if a.size == 0:
        return 0.0
    m = a.T @ a
    n = m.shape[0]
    x = np.ones(n) / math.sqrt(n)
    prev = 0.0
    for _ in range(maxit):
        y = m @ x
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            return 0.0
        x = y / nrm
        if prev and abs(nrm - prev) <= tol * nrm:
            prev = nrm
            break
        prev = nrm
    return math.sqrt(prev)


@dataclass
class EnergyBoundReport:
    order: int
    cutoffs: tuple
    norms: dict          # cutoff -> {mode index: norm of Y(s) (1+L0)^{-r}}
    maxima: dict         # cutoff -> max over modes
    slack: float
    verdict: str         # "PASS" | "FAIL"


def energy_bound_probe(space: ChargeSpace, alpha, order: int, cutoffs,
                       max_abs_mode: int = 6,
                       slack: float = 1.05) -> EnergyBoundReport:
    """Norm trend of Y_alpha(s)(1 + L0)^{-order} across cutoffs.

    For each cutoff the norms are maximized over the mode window; the
    verdict is PASS when the cutoff maxima are non-increasing beyond the
    smallest cutoff within the slack factor. A FAIL is data, not an error.
    """
    cutoffs = tuple(sorted(cutoffs))
    alpha = [Fraction(x) for x in alpha]
    mu = [ZERO] * space.rank
    offset = space.pairing(alpha, alpha) / 2
    norms: dict = {}
    for cut in cutoffs:
        per: dict = {}
        for k in range(-max_abs_mode * 2, max_abs_mode * 2 + 1):
            s = Fraction(k) - 1  # grid: s = -1 - (alpha|0) + integer
            if abs(s) > max_abs_mode:
                continue
            mm = heisenberg_mode(space, alpha, mu, s, cut)
            a = mm.float_matrix()
            # scale columns by (1 + L0)^{-order} of the source level
            col = 0
            for l in range(cut + 1):
                width = len(mm.space.levels[l])
                if order:
                    a[:, col:col + width] *= (1.0 + l) ** (-order)
                col += width
            per[str(s)] = _power_norm(a)
        norms[cut] = per
    maxima = {cut: max(per.values()) if per else 0.0 for cut, per in norms.items()}
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
    exact, so the reported deviation is float round-off only.
    """
    from . import linalg

    alpha = [Fraction(x) for x in alpha]
    beta = [Fraction(x) for x in beta]
    aa = space.pairing(alpha, alpha)
    ab = space.pairing(alpha, beta)
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
            raise AssertionError("mode grading mismatch")
        adj = _block_adjoint(fwd.blocks, fk, fwd.shift, cutoff)
        for l, blk in bwd.blocks.items():
            other = adj.get(l)
            if other is None:
                continue
            rows, cols = len(blk), len(blk[0]) if blk else 0
            for r in range(rows):
                for c in range(cols):
                    lhs = phase * complex(float(other[r][c]))
                    rhs = phase * complex(float(blk[r][c]))
                    worst = max(worst, abs(lhs - rhs))
                    checked += 1
    return {"max_deviation": worst, "entries_checked": checked,
            "phase": phase, "phase_exponent_half_turns": float(delta)}


def _leading_coefficients(space: ChargeSpace, first, second, cutoff: int):
    """c_l = <vac| U_l(first) D_l(second) |vac>, exact rationals."""
    vac = {(): ONE}
    ds = _exp_series(space, second, vac, cutoff, -1)
    out = []
    for l in range(cutoff + 1):
        if not ds[l]:
            out.append(ZERO)
            continue
        us = _exp_series(space, first, ds[l], l, +1)
        out.append(us[l].get((), ZERO))
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
