"""Fraction views of linalg's (numerators, den) pairs, for the tests.

The package hands every exact matrix out as a (numerators, den) pair. The
tests compare those results with Fraction references entry by entry, reading
each pair through the views below; the helpers that build Fraction
references (zeros, identity, matvec, a product of Fraction matrices) and
the pair of a Fraction matrix (`scaled`) live here too.
"""
import math
from fractions import Fraction

from liefusion import linalg


def rational(pair):
    """The Fraction matrix numerators / den of a (numerators, den) pair."""
    nums, den = pair
    return [[Fraction(x, den) for x in row] for row in nums]


def rational_vector(pair):
    """The Fraction vector numerators / den of a (numerators, den) pair."""
    nums, den = pair
    return [Fraction(x, den) for x in nums]


def scaled(a):
    """(numerators, d) with a == numerators / d, d the lcm of a's denominators."""
    d = math.lcm(*{x.denominator for row in a for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def frac_matmul(a, b):
    """The product of two int or Fraction matrices, through linalg.matmul."""
    return rational(linalg.matmul(scaled(a), scaled(b)))


def rref_view(a):
    """linalg.rref(a) as (the full rref of a in Fractions, pivots): the
    nonzero rows over their den, then a zero row per row of a left over."""
    nums, den, pivots = linalg.rref(a)
    width = len(a[0]) if a else 0
    return rational((nums, den)) + zeros(len(a) - len(nums), width), pivots
