import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from liefusion import linalg
from liefusion.affine import _comm, casimir_eigenvalue
from liefusion.chevalley import _span_closure, build_simply_laced, unitary_closure
from liefusion.highmod import realize_module
from liefusion.rootsys import AlgebraId, Weight
from rational_view import (
    frac_matmul, identity, matvec, rational, rational_vector, rref_view, scaled,
)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_rank_nullspace():
    a = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(a) == 2
    ns = linalg.nullspace(a)
    assert len(ns) == 1
    assert all(type(x) is int for x in ns[0])
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
        b = matvec(a, x)
        assert rational_vector(linalg.solve(a, b)) == x
        inv = linalg.inverse(a)
        assert frac_matmul(a, rational(inv)) == identity(n)


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
        (an, da), (bn, db) = scaled(a), scaled(b)
        nums, d = linalg.matmul((an, da), (bn, db))
        assert d == da * db and all(type(x) is int for row in nums for x in row)
        assert rational((nums, d)) == _naive_matmul(a, b)


def test_matmul_mixed_int_fraction_entries():
    a = [[1, Fraction(1, 2)], [Fraction(-3, 4), 2]]
    b = [[Fraction(2, 3), 0], [5, Fraction(1, 6)]]
    nums, d = linalg.matmul(scaled(a), scaled(b))
    assert d == 4 * 6 and all(type(x) is int for row in nums for x in row)
    got = rational((nums, d))
    assert got == [[Fraction(19, 6), Fraction(1, 12)], [Fraction(19, 2), Fraction(1, 3)]]
    assert got == _naive_matmul(a, b)
    ints = linalg.matmul(([[1, 2]], 1), ([[3], [4]], 1))
    assert ints == ([[11]], 1)
    assert type(ints[0][0][0]) is int


def test_matmul_empty_shapes():
    b = scaled(frac_matrix([[1, 2], [3, 4]]))
    assert linalg.matmul(([], 1), b) == ([], 1)
    a = scaled(frac_matrix([[1, 2], [3, 4], [5, 6]]))
    assert linalg.matmul(a, ([], 1)) == ([[], [], []], 1)


# -- references: the eliminations that Echelon and det replaced ---------------


def _ref_rref(a):
    """The dense Gauss-Jordan loop that rref ran before Echelon.reduced."""
    m = [[Fraction(x) for x in row] for row in a]
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


def _ref_nullspace(a):
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = _ref_rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _ref_solve(a, b):
    n = len(a)
    red, pivots = _ref_rref([a[i][:] + [b[i]] for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [red[i][n] for i in range(n)]


def _ref_inverse(a):
    n = len(a)
    red, pivots = _ref_rref([a[i][:] + identity(n)[i] for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


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


def _primitive_multiple(w, v):
    """w is v times a nonzero rational, as Echelon keeps its rows and
    remainders: ints with no common factor, the lead (least key) positive,
    the keys in v's order."""
    if list(w) != list(v):
        return False
    if not w:
        return True
    lead = min(w)
    c = w[lead] / Fraction(v[lead])
    return (all(type(x) is int for x in w.values()) and w[lead] > 0
            and math.gcd(*w.values()) == 1 and all(w[k] == c * v[k] for k in w))


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
            assert _primitive_multiple(new.reduce(v), ref.reduce(v))
            assert new.add(v) == ref.add(v)
            assert [lead for lead, _ in new.rows] == [lead for lead, _ in ref.rows]
            assert all(_primitive_multiple(b, r) for (_, b), (_, r) in zip(new.rows, ref.rows))


def test_echelon_matches_dense_reference():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 7)
        new, ref = linalg.Echelon(), _RefDense()
        for _ in range(rng.randint(1, 9)):
            v = [_random_rational(rng) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(n)]
            assert new.add(dict(enumerate(v))) == ref.add(v)
            assert [lead for lead, _ in new.rows] == [lead for lead, _ in ref.rows]
            assert all(_primitive_multiple(dict(sorted(b.items())), _sparse(r))
                       for (_, b), (_, r) in zip(new.rows, ref.rows))
        rows = [r for _, r in ref.rows]
        for i in range(n):
            unit = [Fraction(int(i == j)) for j in range(n)]
            reduced = _ref_reduce_against(rows, unit)
            assert _primitive_multiple(dict(sorted(new.reduce({i: Fraction(1)}).items())),
                                       _sparse(reduced))


def _sparse(v):
    return {j: x for j, x in enumerate(v) if x}


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
        ref = _ref_unitary_closure(alg, gens)
        assert len(basis) == len(ref) == dim
        assert all(_primitive_multiple(b, r) for b, r in zip(basis, ref))


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_ints = st.integers(-5, 5)
# every matrix is all Fractions, all ints, or a mix of the two
_kinds = st.sampled_from((_fractions, _ints, st.one_of(_ints, _fractions)))


@st.composite
def _square(draw, n=None):
    n = draw(st.integers(0, 5)) if n is None else n
    entries = draw(_kinds)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # force a singular matrix: one row a multiple of another
        i, k = draw(st.permutations(range(n)))[:2]
        c = draw(entries)
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
    assert linalg.det(frac_matmul(a, b)) == linalg.det(a) * linalg.det(b)


def test_det_small_cases():
    assert linalg.det([]) == 1
    assert linalg.det([[0]]) == 0
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert linalg.det([[1, 2], [2, 4]]) == 0


@st.composite
def _matrix(draw, entries=None):
    """Any shape up to 5 x 6, [] and [[]] among them, often rank-deficient."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entries = draw(_kinds) if entries is None else entries
    rows = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        # force a dependent row: a combination of two others
        i, j, k = draw(st.permutations(range(n)))[:3]
        c, d = draw(entries), draw(entries)
        rows[k] = [c * x + d * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=300, deadline=None)
@given(_matrix())
@example([])
@example([[]])
@example([[], []])
def test_rref_rank_nullspace_match_dense_reference(a):
    assert rref_view(a) == _ref_rref(a)
    nums, d, pivots = linalg.rref(a)
    assert linalg.rank(a) == len(pivots)
    # the pair is all ints over d > 0, and every pivot entry is d: a leading 1
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in nums for x in row)
    assert all(nums[r][c] == d for r, c in enumerate(pivots))
    # each nullspace vector is an int vector, a positive multiple of the
    # reference's, which holds 1 at its free column
    ns, ref = linalg.nullspace(a), _ref_nullspace(a)
    free = [c for c in range(len(a[0]) if a else 0) if c not in pivots]
    assert len(ns) == len(ref) == (len(free) if a else 0)
    for v, r, fc in zip(ns, ref, free):
        assert all(type(x) is int for x in v) and v[fc] > 0
        assert [Fraction(x, v[fc]) for x in v] == r


@settings(max_examples=200, deadline=None)
@given(_matrix(_ints))
@example([[]])
def test_echelon_int_path_matches_fraction_path(a):
    # all-int vectors enter `scaled_reduce` as they are; the same vectors as
    # Fractions are scaled to integers first, and every result must agree
    fa = [[Fraction(x) for x in row] for row in a]
    ints, fracs = linalg.Echelon(), linalg.Echelon()
    for row, frow in zip(a, fa):
        got = ints.scaled_reduce(dict(enumerate(row)))
        assert got == fracs.scaled_reduce(dict(enumerate(frow)))
        assert all(type(x) is int for x in got[0].values())
        assert ints.add(dict(enumerate(row))) == fracs.add(dict(enumerate(frow)))
    assert ints.rows == fracs.rows
    assert all(type(x) is int for _, b in ints.rows for x in b.values())
    assert linalg.rank(a) == linalg.rank(fa)
    assert linalg.rref(a) == linalg.rref(fa)
    k = min(len(a), len(a[0]) if a else 0)
    assert linalg.det([row[:k] for row in a[:k]]) == linalg.det([row[:k] for row in fa[:k]])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(_square(n), _kinds.flatmap(
        lambda entries: st.lists(entries, min_size=n, max_size=n)))))
def test_solve_inverse_match_dense_reference(ab):
    a, b = ab
    x, inv = _outcome(linalg.solve, a, b), _outcome(linalg.inverse, a)
    assert (x if x is ValueError else rational_vector(x)) == _outcome(_ref_solve, a, b)
    assert (inv if inv is ValueError else rational(inv)) == _outcome(_ref_inverse, a)
    if inv is not ValueError:
        # both pairs are ints over a den > 0, in lowest terms
        (xn, xd), (inn, ind) = x, inv
        entries = [v for row in inn for v in row]
        assert all(type(v) is int for v in xn + entries + [xd, ind])
        assert xd > 0 and math.gcd(xd, *xn) == 1
        assert ind > 0 and math.gcd(ind, *entries) == 1


# -- references: the closure loops that linalg.closure replaced ---------------


def _ref_span_closure(ops, seed_vecs):
    ech = linalg.Echelon()
    frontier = [v for v in seed_vecs if ech.add(dict(enumerate(v)))]
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = matvec(op, v)
                if ech.add(dict(enumerate(w))):
                    new.append(w)
        frontier = new
    return ech


def _flat(m):
    return {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row)}


def _ref_casimir_closure(gens):
    """The Casimir loop: later elements of a round also bracket this round's."""
    ech = linalg.Echelon()
    basis = [m for m in gens if ech.add(_flat(m))]
    frontier = list(basis)
    while frontier:
        new = []
        for a in frontier:
            for b in list(basis):
                c = _comm(a, b)
                if ech.add(_flat(c)):
                    basis.append(c)
                    new.append(c)
        frontier = new
    return basis


def _rows(ech):
    return [(lead, list(b.items())) for lead, b in ech.rows]


def test_span_closure_matches_reference_loop():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 6)
        ops = [[[_random_rational(rng) if rng.random() < 0.3 else Fraction(0)
                 for _ in range(n)] for _ in range(n)] for _ in range(rng.randint(1, 3))]
        seeds = [[_random_rational(rng) if rng.random() < 0.5 else Fraction(0)
                  for _ in range(n)] for _ in range(rng.randint(1, 3))]
        assert _rows(_span_closure(ops, seeds)) == _rows(_ref_span_closure(ops, seeds))
    # the folded so_7 inside the standard module of so_8: the two last
    # nodes merge, and the highest vector spans a 7-dim submodule
    mod = realize_module(Weight.from_fundamental(AlgebraId("D", 4), [1, 0, 0, 0]))
    ops = []
    for x in "EF":
        ms = [rational(mod.full_matrix(x, i)) for i in range(4)]
        ops += ms[:2] + [[[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(ms[2], ms[3])]]
    seed = [[Fraction(int(i == 0)) for i in range(mod.dim)]]
    new, ref = _span_closure(ops, seed), _ref_span_closure(ops, seed)
    assert len(new.rows) == 7
    assert _rows(new) == _rows(ref)


def test_casimir_closure_spans_the_reference_space(monkeypatch):
    seen = []
    closure = linalg.closure

    def spy(*args):
        seen.append(closure(*args))
        return seen[-1]

    monkeypatch.setattr(linalg, "closure", spy)
    for aid, f, dim in ((AlgebraId("A", 2), [1, 0], 8), (AlgebraId("C", 2), [1, 0], 10),
                        (AlgebraId("G", 2), [1, 0], 14)):
        lam = Weight.from_fundamental(aid, f)
        casimir_eigenvalue(lam)
        basis, ech = seen.pop()
        mod = realize_module(lam)
        gens = [rational(mod.full_matrix(x, i)) for x in "EFH" for i in range(aid.rank)]
        ref = _ref_casimir_closure(gens)
        assert len(basis) == len(ech.rows) == len(ref) == dim
        assert all(not ech.reduce(_flat(m)) for m in ref)
