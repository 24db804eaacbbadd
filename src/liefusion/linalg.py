"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (rows). There is one elimination
and one span closure; sizes in this package stay small enough (a few
hundred rows) that fraction growth is not a concern:

- `Echelon`, an incremental echelon basis of sparse vectors {key: Fraction}
  by plain Gaussian elimination with exact pivots. `rank` counts its kept
  rows, `det` multiplies their leads, and `Echelon.reduced` back-substitutes
  them through the same `reduce` into the reduced row echelon form that
  `rref`, `nullspace`, `solve` and `inverse` read;
- `closure`, the breadth-first span closure of seeds under a step map on an
  `Echelon`, under the Lie and module closures of `chevalley` and `affine`.

Products run on integer numerators over one common denominator per
operand: `scaled_matmul` multiplies (numerators, d) pairs in plain int
arithmetic, and `matmul` scales its operands into it and reduces each entry
of the result once.
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


def scaled(a: Matrix) -> tuple[list[list[int]], int]:
    """(numerators, d) with a == numerators / d, d the lcm of a's denominators."""
    d = math.lcm(*{x.denominator for row in a for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def scaled_vector(v) -> tuple[list[int], int]:
    """(numerators, d) with v == numerators / d; all-int vectors pass as is."""
    if all(type(x) is int for x in v):
        return v, 1
    d = math.lcm(*{x.denominator for x in v})
    return [x.numerator * (d // x.denominator) for x in v], d


def int_bilinear(m, x, y) -> int:
    """x m y^T for an integer matrix m and integer vectors x, y."""
    return sum(c * sum(map(mul, row, y)) for c, row in zip(x, m) if c)


def scaled_matmul(a: tuple, b: tuple) -> tuple[list[list[int]], int]:
    """Product of two (numerators, d) pairs, as (numerators, d)."""
    (an, da), (bn, db) = a, b
    cols = list(zip(*bn))
    return [[sum(map(mul, row, col)) for col in cols] for row in an], da * db


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cn, d = scaled_matmul(scaled(a), scaled(b))
    return [[Fraction(n, d) if n else ZERO for n in row] for row in cn]


def matvec(a: Matrix, v: Vector) -> Vector:
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


class Echelon:
    """Incremental echelon basis of sparse vectors {key: Fraction}.

    Each kept row leads with its least key. A new vector is reduced against
    the kept rows in insertion order and kept if anything is left.
    """

    def __init__(self):
        self.rows: list[tuple] = []  # (lead key, reduced row)

    def reduce(self, v: dict) -> dict:
        v = {k: x for k, x in v.items() if x}
        for lead, b in self.rows:
            if lead in v:
                c = v[lead] / b[lead]
                for k, x in b.items():
                    y = v.get(k, ZERO) - c * x
                    if y:
                        v[k] = y
                    else:
                        del v[k]
        return v

    def add(self, v: dict) -> bool:
        """Keep v's remainder if it is nonzero; True when it was kept."""
        v = self.reduce(v)
        if v:
            self.rows.append((min(v), v))
        return bool(v)

    def basis(self) -> list[dict]:
        return [b for _, b in self.rows]

    def reduced(self) -> list[dict]:
        """The kept rows in reduced echelon form: sorted by lead, leads ONE.

        A kept row holds no key below its lead, so reducing the rows largest
        lead first against those already done clears every other lead and
        leaves this one alone: back-substitution through `reduce`.
        """
        back = Echelon()
        for lead, b in sorted(self.rows, key=lambda r: r[0], reverse=True):
            v = back.reduce(b)
            c = v[lead]
            if c != 1:
                v = {k: x / c for k, x in v.items()}
            v[lead] = ONE
            back.rows.append((lead, v))
        return [b for _, b in reversed(back.rows)]


def closure(seeds, step, vec) -> tuple[list, Echelon]:
    """Span closure of seeds under step, in breadth-first rounds.

    An element is kept when vec(element), a sparse vector, is independent of
    those kept before it. Each round applies step(a, kept) to every a kept in
    the round before, with kept as it stood at the start of the round.
    Returns the kept elements, unreduced, and their `Echelon`.
    """
    ech = Echelon()
    kept = [s for s in seeds if ech.add(vec(s))]
    frontier = kept
    while frontier:
        frontier = [c for a in frontier for c in step(a, kept) if ech.add(vec(c))]
        kept.extend(frontier)
    return kept, ech


def _echelon(a: Matrix) -> Echelon:
    ech = Echelon()
    for row in a:
        ech.add(dict(enumerate(row)))
    return ech


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    if not a:
        return [], []
    ncols = len(a[0])
    rows = _echelon(a).reduced()
    m = [[b.get(c, ZERO) for c in range(ncols)] for b in rows]
    m += [[ZERO] * ncols for _ in range(len(a) - len(rows))]
    return m, [min(b) for b in rows]


def rank(a: Matrix) -> int:
    return len(_echelon(a).rows)


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
    """Exact determinant of a square matrix of ints or Fractions.

    Adding the rows to an `Echelon` only subtracts multiples of earlier
    rows, so the determinant is that of the kept rows: the product of their
    lead entries times the sign of the permutation of lead columns.
    """
    ech = Echelon()
    for row in a:
        if not ech.add({c: Fraction(x) for c, x in enumerate(row)}):
            return ZERO
    leads = [lead for lead, _ in ech.rows]
    d = ONE
    for lead, row in ech.rows:
        d *= row[lead]
    inversions = sum(x > y for i, x in enumerate(leads) for y in leads[i + 1:])
    return -d if inversions % 2 else d


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [a[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(m)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]
