import random
from fractions import Fraction

import pytest

from liefusion.rootsys import (
    AlgebraId,
    Weight,
    build_root_system,
    dual_weight,
    inner_product,
    to_dominant,
    weyl_orbit,
)

DIMS = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}
DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}

ALL_IDS = (
    [AlgebraId("A", n) for n in (1, 2, 3, 4)]
    + [AlgebraId("B", n) for n in (2, 3, 4, 5)]
    + [AlgebraId("C", n) for n in (2, 3, 4)]
    + [AlgebraId("D", n) for n in (3, 4, 5, 6)]
    + [AlgebraId("E", n) for n in (6, 7, 8)]
    + [AlgebraId("F", 4), AlgebraId("G", 2)]
)


@pytest.mark.parametrize("aid", ALL_IDS, ids=str)
def test_root_counts_and_normalization(aid):
    rs = build_root_system(aid)
    assert 2 * len(rs.positive_roots) == DIMS[aid.series](aid.rank) - aid.rank
    assert rs.dual_coxeter == DUAL_COXETER[aid.series](aid.rank)
    theta = rs.highest_root
    assert inner_product(theta, theta) == 2
    # every positive root is a nonnegative integer combination of simples
    for r in rs.positive_roots:
        assert all(c >= 0 and c.denominator == 1 for c in r.coords)


@pytest.mark.parametrize("aid", ALL_IDS, ids=str)
def test_cartan_matrix_reconstruction(aid):
    rs = build_root_system(aid)
    n = aid.rank
    for i in range(n):
        for j in range(n):
            ai, aj = rs.simple_roots[i], rs.simple_roots[j]
            val = 2 * inner_product(ai, aj) / inner_product(aj, aj)
            assert val == rs.cartan_matrix[i][j]


# det of the Cartan matrix, the order of the weight lattice modulo the roots
CARTAN_DET = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: 9 - n,
    "F": lambda n: 1,
    "G": lambda n: 1,
}


@pytest.mark.parametrize("aid", ALL_IDS, ids=str)
def test_cartan_adjugate(aid):
    rs = build_root_system(aid)
    n = aid.rank
    adj, c, d = rs.cartan_adjugate, rs.cartan_matrix, rs.cartan_det
    assert d == CARTAN_DET[aid.series](n)
    for i in range(n):
        for j in range(n):
            assert type(adj[i][j]) is int
            assert sum(adj[i][k] * c[k][j] for k in range(n)) == (d if i == j else 0)


def test_invalid_ranks_rejected():
    with pytest.raises(ValueError, match="D requires rank >= 3"):
        AlgebraId("D", 2)
    with pytest.raises(ValueError, match="rank <= 8"):
        AlgebraId("E", 9)
    with pytest.raises(ValueError, match="G requires rank"):
        AlgebraId("G", 3)
    with pytest.raises(ValueError):
        AlgebraId.parse("X3")


def test_type_specific_pairings():
    # B series: the theta-coordinate functionals are orthonormal
    b3 = build_root_system(AlgebraId("B", 3))
    assert b3.highest_root == b3.fundamental_weights[1]
    t1 = b3.fundamental_weights[0]
    assert inner_product(t1, t1) == 1
    # C series: half-length theta functionals
    c3 = build_root_system(AlgebraId("C", 3))
    assert inner_product(c3.fundamental_weights[0], c3.fundamental_weights[0]) == Fraction(1, 2)
    # D series: orthonormal
    d4 = build_root_system(AlgebraId("D", 4))
    assert inner_product(d4.fundamental_weights[0], d4.fundamental_weights[0]) == 1
    # G2: short first fundamental, long highest root
    g2 = build_root_system(AlgebraId("G", 2))
    v1, v2 = g2.fundamental_weights
    assert inner_product(v1, v2) == 1
    assert inner_product(v2, v2) == 2
    assert g2.highest_root == v2


def test_to_dominant_single_reflection():
    a1 = AlgebraId("A", 1)
    lam = Weight.from_root_coords(a1, [Fraction(-3, 2)])
    dom, sign, length = to_dominant(lam)
    assert dom == Weight.from_root_coords(a1, [Fraction(3, 2)])
    assert (sign, length) == (-1, 1)
    # already dominant: identity element
    mu = Weight.from_fundamental(a1, [2])
    assert to_dominant(mu) == (mu, 1, 0)
    # wall vector
    zero = Weight.from_fundamental(a1, [0])
    assert to_dominant(zero)[1] == 0


def test_orbit_and_duality_properties():
    rng = random.Random(4)
    for aid in (AlgebraId("A", 3), AlgebraId("B", 3), AlgebraId("C", 3),
                AlgebraId("D", 4), AlgebraId("G", 2)):
        rs = build_root_system(aid)
        for _ in range(15):
            lam = Weight.from_fundamental(
                aid, [rng.randint(0, 3) for _ in range(aid.rank)]
            )
            bar = dual_weight(lam)
            assert dual_weight(bar) == lam
            assert inner_product(lam, rs.highest_root) == inner_product(bar, rs.highest_root)
            # random Weyl words land on the same dominant representative
            f = list(lam.fundamental)
            for _ in range(12):
                j = rng.randrange(aid.rank)
                fj = f[j]
                for k in range(aid.rank):
                    f[k] -= fj * rs.cartan_matrix[j][k]
            moved = Weight.from_fundamental(aid, f)
            assert to_dominant(moved)[0] == lam


def test_orbit_sizes_match_dominant_reduction():
    aid = AlgebraId("B", 2)
    lam = Weight.from_fundamental(aid, [1, 1])
    orb = weyl_orbit(lam)
    assert len(orb) == 8
    for f in orb:
        w = Weight.from_fundamental(aid, f)
        assert to_dominant(w)[0] == lam


def test_weight_json_roundtrip():
    w = Weight.from_fundamental(AlgebraId("B", 3), [1, 0, Fraction(1, 2)])
    text = w.to_json()
    assert '"1/2"' in text and '"basis": "fundamental"' in text.replace("'", '"') or "1/2" in text
    assert Weight.from_json(text) == w


def test_algebra_mismatch_rejected():
    w1 = Weight.from_fundamental(AlgebraId("A", 2), [1, 0])
    w2 = Weight.from_fundamental(AlgebraId("B", 2), [1, 0])
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(w1, w2)


def test_self_dual_charges():
    # the symplectic and rank-2 exceptional standard charges are self-dual
    c3 = AlgebraId("C", 3)
    v1 = Weight.from_fundamental(c3, [1, 0, 0])
    assert dual_weight(v1) == v1
    g2 = AlgebraId("G", 2)
    w1 = Weight.from_fundamental(g2, [1, 0])
    assert dual_weight(w1) == w1
    zero = Weight.from_fundamental(g2, [0, 0])
    assert dual_weight(zero) == zero
    with pytest.raises(ValueError, match="dominant"):
        dual_weight(Weight.from_fundamental(g2, [-1, 0]))
