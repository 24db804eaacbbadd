"""Exact linear algebra over the rationals, in integer arithmetic.

Matrices are lists of rows and vectors are sparse dicts {key: x}; input
entries are ints or Fractions. Every exact matrix result comes back in one
form, a (numerators, d) pair: an int matrix and an int d > 0 with the matrix
equal to numerators / d. There is one elimination and one span closure, and
neither builds a Fraction on the way:

- `Echelon`, an incremental echelon basis of sparse vectors. Every incoming
  vector is scaled to integers, reduced against the kept rows by
  cross-multiplication instead of division (fraction-free elimination, as in
  Bareiss, Math. Comp. 22, 1968), and kept as a primitive integer row if
  anything is left. Scaling a row changes neither the span nor the reduced
  echelon form. `rank` counts the kept rows, `det` multiplies their leads
  and divides out the row scalings, and `Echelon.reduced` back-substitutes
  them through the same `reduce` into the reduced row echelon form that
  `rref` puts over one denominator and `nullspace`, `solve` and `inverse`
  read;
- `closure`, the breadth-first span closure of seeds under a step map on an
  `Echelon`, under the Lie and module closures of `chevalley` and `affine`.

`matmul` multiplies two pairs in plain int arithmetic. `inverse` and
`solve` return pairs in lowest terms and `nullspace` integer vectors. The
only Fraction built here is `det`'s; callers build rationals where a result
leaves the package.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)] if a else []


def scaled_vector(v) -> tuple[list[int], int]:
    """(numerators, d) with v == numerators / d; all-int vectors pass as is."""
    for x in v:
        if type(x) is not int:
            break
    else:
        return v, 1
    d = math.lcm(*{x.denominator for x in v})
    return [x.numerator * (d // x.denominator) for x in v], d


def lowest(nums: list[list[int]], d: int) -> tuple[list[list[int]], int]:
    """The pair (nums, d), d > 0, divided by the gcd of d and every numerator."""
    g = math.gcd(d, *(x for row in nums for x in row)) if d > 1 else 1
    return ([[x // g for x in row] for row in nums], d // g) if g > 1 else (nums, d)


def int_bilinear(m, x, y) -> int:
    """x m y^T for an integer matrix m and integer vectors x, y."""
    return sum(c * sum(map(mul, row, y)) for c, row in zip(x, m) if c)


def matmul(a: tuple, b: tuple) -> tuple[list[list[int]], int]:
    """Product of two (numerators, d) pairs, as (numerators, d)."""
    (an, da), (bn, db) = a, b
    cols = list(zip(*bn))
    return [[sum(map(mul, row, col)) for col in cols] for row in an], da * db


class Echelon:
    """Incremental echelon basis of sparse vectors {key: int or Fraction}.

    Each kept row is a primitive integer vector (its entries share no
    factor) that leads with its least key, and its lead entry is positive.
    A new vector v is scaled to integers (an all-int one is taken as it
    is) and reduced against the kept rows in insertion order: for a row b
    whose lead key v holds, v becomes (b_lead / g) v - (v_lead / g) b, g the
    gcd of the two lead entries, so no step divides. What is left is kept,
    made primitive, if it is nonzero.
    """

    def __init__(self):
        self.rows: list[tuple] = []  # (lead key, primitive integer row)

    def scaled_reduce(self, v: dict) -> tuple[dict, int, int]:
        """(w, p, q): w is p / q times the remainder of v, made primitive
        with a positive lead; w is {} when v lies in the span."""
        if all(type(x) is int for x in v.values()):
            p, w = 1, {k: x for k, x in v.items() if x}
        else:
            p = math.lcm(*(x.denominator for x in v.values()))
            w = {k: x.numerator * (p // x.denominator) for k, x in v.items() if x}
        for lead, b in self.rows:
            x = w.get(lead)
            if x:
                g = math.gcd(x, b[lead])
                s, t = b[lead] // g, x // g
                if s != 1:
                    p *= s
                    w = {k: s * z for k, z in w.items()}
                for k, z in b.items():
                    w[k] = w.get(k, 0) - t * z
        w = {k: z for k, z in w.items() if z}
        q = math.gcd(*w.values()) or 1
        q = -q if w and w[min(w)] < 0 else q
        return ({k: z // q for k, z in w.items()} if q != 1 else w), p, q

    def reduce(self, v: dict) -> dict:
        """v's remainder against the kept rows, up to a nonzero scalar."""
        return self.scaled_reduce(v)[0]

    def add(self, v: dict) -> bool:
        """Keep v's remainder if it is nonzero; True when it was kept."""
        v = self.reduce(v)
        if v:
            self.rows.append((min(v), v))
        return bool(v)

    def basis(self) -> list[dict]:
        return [b for _, b in self.rows]

    def reduced(self) -> list[tuple]:
        """The kept rows in reduced echelon form, as (lead, row) sorted by lead.

        Each row comes back primitive with a positive lead, and divided by
        its lead it is a row of the rref. A kept row holds no key below its
        lead, so reducing the rows largest lead first against those already
        done clears every other lead and only scales this one:
        back-substitution through `reduce`.
        """
        back = Echelon()
        for lead, b in sorted(self.rows, key=lambda r: r[0], reverse=True):
            back.rows.append((lead, back.reduce(b) if back.rows else b))
        return back.rows[::-1]


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


def _echelon(a) -> Echelon:
    ech = Echelon()
    for row in a:
        ech.add(dict(enumerate(row)))
    return ech


def rref(a) -> tuple[list[list[int]], int, list[int]]:
    """The nonzero rows of the rref of a as (numerators, d), and the pivots.

    d is the lcm of the leads of `Echelon.reduced`, so the pivot entries are
    d; no Fraction is built.
    """
    rows = _echelon(a).reduced()
    d = math.lcm(*(b[lead] for lead, b in rows))
    nums = [[b.get(c, 0) * (d // b[lead]) for c in range(len(a[0]))] for lead, b in rows]
    return nums, d, [lead for lead, _ in rows]


def rank(a) -> int:
    return len(_echelon(a).rows)


def nullspace(a) -> list[list[int]]:
    """Integer basis of the right nullspace of a, one vector per free column.

    The vector of free column c is d times the rational one that holds 1 at
    c and 0 at the other free columns.
    """
    if not a:
        return []
    nums, d, pivots = rref(a)
    basis = []
    for fc in sorted(set(range(len(a[0]))) - set(pivots)):
        v = [0] * len(a[0])
        v[fc] = d
        for row, pc in zip(nums, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(a, b) -> tuple[list[int], int]:
    """Solve a x = b exactly, a square nonsingular: x as (numerators, d)."""
    n = len(a)
    nums, d, pivots = rref([list(row) + [y] for row, y in zip(a, b)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    (x,), d = lowest([[row[n] for row in nums]], d)
    return x, d


def det(a) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions.

    Adding the rows to an `Echelon` subtracts multiples of earlier rows and
    scales each row by the p / q that `scaled_reduce` reports, so the
    determinant is that of the kept rows over the product of those scales:
    the product of their leads, times the sign of the permutation of lead
    columns, times q / p per row.
    """
    ech = Echelon()
    num = den = 1
    for row in a:
        w, p, q = ech.scaled_reduce(dict(enumerate(row)))
        if not w:
            return Fraction(0)
        ech.rows.append((min(w), w))
        num *= w[min(w)] * q
        den *= p
    leads = [lead for lead, _ in ech.rows]
    inversions = sum(x > y for i, x in enumerate(leads) for y in leads[i + 1:])
    return Fraction(-num if inversions % 2 else num, den)


def inverse(a) -> tuple[list[list[int]], int]:
    """The inverse of a square nonsingular a, as (numerators, d) in lowest terms."""
    n = len(a)
    nums, d, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return lowest([row[n:] for row in nums], d)
