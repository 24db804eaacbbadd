import random
from fractions import Fraction

from liefusion import linalg


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_rank_nullspace():
    a = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(a) == 2
    ns = linalg.nullspace(a)
    assert len(ns) == 1
    for row in a:
        assert sum(x * y for x, y in zip(row, ns[0])) == 0


def test_solve_and_inverse_random():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = frac_matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        while linalg.rank(a) < n:
            a = frac_matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        b = linalg.matvec(a, x)
        assert linalg.solve(a, b) == x
        inv = linalg.inverse(a)
        assert linalg.matmul(a, inv) == linalg.identity(n)


def test_solve_general():
    a = frac_matrix([[1, 1], [2, 2]])
    assert linalg.solve_general(a, [Fraction(1), Fraction(2)]) is not None
    assert linalg.solve_general(a, [Fraction(1), Fraction(3)]) is None


def _naive_matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_matmul_random_rationals():
    rng = random.Random(1)
    for _ in range(40):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k)]
             for _ in range(n)]
        b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(m)]
             for _ in range(k)]
        assert linalg.matmul(a, b) == _naive_matmul(a, b)


def test_matmul_mixed_int_fraction_entries():
    a = [[1, Fraction(1, 2)], [Fraction(-3, 4), 2]]
    b = [[Fraction(2, 3), 0], [5, Fraction(1, 6)]]
    got = linalg.matmul(a, b)
    assert got == [[Fraction(19, 6), Fraction(1, 12)], [Fraction(19, 2), Fraction(1, 3)]]
    assert got == _naive_matmul(a, b)
    assert all(type(x) is Fraction for row in got for x in row)
    ints = linalg.matmul([[1, 2]], [[3], [4]])
    assert ints == [[Fraction(11)]]
    assert type(ints[0][0]) is Fraction


def test_matmul_empty_shapes():
    b = frac_matrix([[1, 2], [3, 4]])
    assert linalg.matmul([], b) == []
    a = frac_matrix([[1, 2], [3, 4], [5, 6]])
    assert linalg.matmul(a, []) == [[], [], []]
