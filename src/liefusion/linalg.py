"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (rows). Eliminations are plain
Gaussian elimination with exact pivots; sizes in this package stay small
enough (a few hundred rows) that fraction growth is not a concern.
Products run on integer numerators over one common denominator per
operand, so the inner sums are plain int arithmetic and each entry is
reduced once.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(n: int, m: int) -> Matrix:
    return [[ZERO] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def _scaled(a: Matrix) -> tuple[list[list[int]], int]:
    """(numerators, d) with a == numerators / d, d the lcm of a's denominators."""
    d = math.lcm(*{x.denominator for row in a for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def matmul(a: Matrix, b: Matrix) -> Matrix:
    an, da = _scaled(a)
    bn, db = _scaled(b)
    d = da * db
    cols = list(zip(*bn))
    return [
        [Fraction(n, d) if n else ZERO for n in (sum(map(mul, row, col)) for col in cols)]
        for row in an
    ]


def matvec(a: Matrix, v: Vector) -> Vector:
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = [row[:] for row in a]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right nullspace of a."""
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b exactly; a square nonsingular."""
    n = len(a)
    m = [a[i][:] + [b[i]] for i in range(n)]
    red, pivots = rref(m)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("singular system")
    return [red[i][n] for i in range(n)]


def det(a) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = ONE
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        pv = m[c][c]
        d *= pv
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / pv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return d


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [a[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(m)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def solve_general(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b for rectangular a, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    nrows, ncols = len(a), len(a[0])
    m = [a[i][:] + [b[i]] for i in range(nrows)]
    red, pivots = rref(m)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
