import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liefusion import linalg
from liefusion.chevalley import build_simply_laced, unitary_closure
from liefusion.rootsys import AlgebraId


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


# -- references: the eliminations that Echelon and det replaced ---------------


def _label_key(lbl):
    if lbl[0] == "h":
        return (0, lbl[1], ())
    return (1, 0, lbl[1])


class _RefEchelon:
    """The label-keyed echelon the Lie closures used to carry."""

    def __init__(self):
        self.rows = []

    def reduce(self, v):
        v = dict(v)
        for lead, b in self.rows:
            if lead in v:
                c = v[lead] / b[lead]
                for l2, c2 in b.items():
                    v[l2] = v.get(l2, Fraction(0)) - c * c2
                    if not v[l2]:
                        del v[l2]
        return v

    def add(self, v):
        v = self.reduce(v)
        if v:
            self.rows.append((min(v, key=_label_key), v))
            return True
        return False


class _RefDense:
    """The dense echelon of the folded-submodule span closure."""

    def __init__(self):
        self.rows = []

    def reduce(self, v):
        v = v[:]
        for lead, r in self.rows:
            if v[lead]:
                c = v[lead] / r[lead]
                v = [a - c * b for a, b in zip(v, r)]
        return v

    def add(self, v):
        v = self.reduce(v)
        nz = next((i for i, x in enumerate(v) if x), None)
        if nz is None:
            return False
        self.rows.append((nz, v))
        return True


def _ref_reduce_against(rows, v):
    v = v[:]
    for r in rows:
        lead = next(i for i, x in enumerate(r) if x)
        if v[lead]:
            c = v[lead] / r[lead]
            v = [a - c * b for a, b in zip(v, r)]
    return v


def _ref_det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c]), None)
        if pr is None:
            return Fraction(0)
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


def _random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def test_echelon_matches_label_keyed_reference():
    rng = random.Random(2)
    labels = [("h", i) for i in range(3)]
    labels += [("x", r) for r in [(1, 0, 0), (0, 1, 1), (-1, 0, 0), (1, 1, 0), (0, 0, -1)]]
    for _ in range(60):
        new, ref = linalg.Echelon(), _RefEchelon()
        for _ in range(rng.randint(1, 12)):
            v = {l: _random_rational(rng) for l in rng.sample(labels, rng.randint(1, 4))}
            v = {l: x for l, x in v.items() if x}
            # a combination of kept rows must reduce to nothing
            if new.rows and rng.random() < 0.3:
                v = {}
                for b in rng.sample(new.basis(), min(2, len(new.rows))):
                    c = _random_rational(rng)
                    for l, x in b.items():
                        v[l] = v.get(l, Fraction(0)) + c * x
                v = {l: x for l, x in v.items() if x}
            assert new.reduce(v) == ref.reduce(v)
            assert new.add(v) == ref.add(v)
            assert [(lead, list(b.items())) for lead, b in new.rows] == \
                [(lead, list(b.items())) for lead, b in ref.rows]


def test_echelon_matches_dense_reference():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 7)
        new, ref = linalg.Echelon(), _RefDense()
        for _ in range(rng.randint(1, 9)):
            v = [_random_rational(rng) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(n)]
            assert new.add(dict(enumerate(v))) == ref.add(v)
            assert [(lead, [b.get(i, Fraction(0)) for i in range(n)])
                    for lead, b in new.rows] == ref.rows
        rows = [r for _, r in ref.rows]
        for i in range(n):
            unit = [Fraction(int(i == j)) for j in range(n)]
            reduced = _ref_reduce_against(rows, unit)
            assert new.reduce({i: Fraction(1)}) == {j: x for j, x in enumerate(reduced) if x}


def _ref_unitary_closure(alg, gens):
    ech = _RefEchelon()
    live = []
    for g in gens:
        for e in (g, alg.star(g)):
            if ech.add(e):
                live.append(e)
    frontier = list(live)
    while frontier:
        new = []
        for a in frontier:
            for b in live:
                c = alg.bracket(a, b)
                if c and ech.add(c):
                    new.append(c)
        live.extend(new)
        frontier = new
    return [b for _, b in ech.rows]


def _plus(*elements):
    out = {}
    for e in elements:
        for lbl, c in e.items():
            out[lbl] = out.get(lbl, Fraction(0)) + c
    return out


def test_unitary_closure_matches_reference_echelon():
    a2 = build_simply_laced(AlgebraId("A", 2))
    d4 = build_simply_laced(AlgebraId("D", 4))
    d4_simple = [d4.x(r) for r in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    cases = [
        (a2, [a2.x((1, 0)), a2.x((0, 1))], 8),
        (a2, [_plus(a2.x((1, 0)), a2.x((0, 1)))], 3),
        (d4, d4_simple, 28),
        # the outer nodes folded: a rank-2 subalgebra of dimension 14
        (d4, [_plus(d4_simple[0], d4_simple[2], d4_simple[3]), d4_simple[1]], 14),
    ]
    for alg, gens, dim in cases:
        basis = unitary_closure(alg, gens)
        assert len(basis) == dim
        assert [list(b.items()) for b in basis] == \
            [list(b.items()) for b in _ref_unitary_closure(alg, gens)]


_entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _square(draw, n=None):
    n = draw(st.integers(0, 5)) if n is None else n
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # force a singular matrix: one row a multiple of another
        i, k = draw(st.permutations(range(n)))[:2]
        c = draw(_entries)
        rows[k] = [c * x for x in rows[i]]
    return rows


@settings(max_examples=200, deadline=None)
@given(_square())
def test_det_matches_reference_and_rank(a):
    d = linalg.det(a)
    assert type(d) is Fraction
    assert d == _ref_det(a)
    assert (d == 0) == (linalg.rank(a) < len(a))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_square(n), _square(n))))
def test_det_is_multiplicative(ab):
    a, b = ab
    assert linalg.det(linalg.matmul(a, b)) == linalg.det(a) * linalg.det(b)


def test_det_small_cases():
    assert linalg.det([]) == 1
    assert linalg.det([[0]]) == 0
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert linalg.det([[1, 2], [2, 4]]) == 0
