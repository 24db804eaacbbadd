"""Root systems, weights, and Weyl-group reductions for the simple types A-G.

Conventions. Weights are stored as exact rational coordinate vectors over
the simple-root basis. The invariant inner product is normalized so that
long roots have squared length 2. The Cartan matrix follows
``cartan[i][j] = 2(a_i|a_j)/(a_j|a_j)``, so a weight's pairing against the
j-th simple coroot is the j-th entry of its fundamental-coordinate vector.

The inner product is carried as integers over one fixed denominator, never
as a matrix of Fractions. On simple-root coordinates it is
``gram6 = 6 (a_i|a_j)``, integral for every simple type. On
fundamental coordinates it is ``form / form_den`` with
``form = 6 det(C) C^-1 D`` and ``form_den = 6 det(C)``, where D holds the
half square lengths (a_j|a_j)/2; `inner_product` sums integers and builds
one Fraction per result.

For G2 the first simple root is short and the second is long; the highest
root is then the second fundamental weight.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError
from .linalg import det, int_bilinear, inverse, scaled_vector

ZERO = Fraction(0)

_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class AlgebraId:
    """A simple-type label: series letter plus rank."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _RANK_RULES:
            raise ValueError(f"unknown series {self.series!r}")
        lo, hi = _RANK_RULES[self.series]
        if self.rank < lo:
            raise ValueError(f"{self.series} requires rank >= {lo}, got {self.rank}")
        if hi is not None and self.rank > hi:
            raise ValueError(f"{self.series} requires rank <= {hi}, got {self.rank}")

    @classmethod
    def parse(cls, text: str) -> "AlgebraId":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse algebra label {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_and_lengths(aid: AlgebraId) -> tuple[list[list[int]], list[Fraction]]:
    """Cartan matrix (spec convention) and half square lengths d_j = (a_j|a_j)/2."""
    n = aid.rank
    s = aid.series
    one = Fraction(1)
    half = Fraction(1, 2)

    def chain_edges(k):
        return [(i, i + 1) for i in range(k - 1)]

    if s == "A":
        edges, d = chain_edges(n), [one] * n
    elif s == "B":
        edges, d = chain_edges(n), [one] * (n - 1) + [half]
    elif s == "C":
        edges, d = chain_edges(n), [half] * (n - 1) + [one]
    elif s == "D":
        edges = chain_edges(n - 1) + [(n - 3, n - 1)]
        d = [one] * n
    elif s == "E":
        # Bourbaki: chain 1-3-4-5-...-n with node 2 attached to node 4
        edges = [(0, 2), (2, 3), (1, 3)] + [(i, i + 1) for i in range(3, n - 1)]
        d = [one] * n
    elif s == "F":
        edges, d = chain_edges(4), [one, one, half, half]
    else:  # G2, first root short
        edges, d = [(0, 1)], [Fraction(1, 3), one]

    gram = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * d[i]
    for i, j in edges:
        # every Dynkin-diagram edge in the simple types has (a_i|a_j) equal
        # to minus the larger of the two half square lengths
        val = -max(d[i], d[j])
        gram[i][j] = gram[j][i] = val
    cartan = [[int(2 * gram[i][j] / gram[j][j]) for j in range(n)] for i in range(n)]
    return cartan, d


@dataclass(frozen=True)
class Weight:
    """Exact weight in the simple-root basis of a fixed algebra."""

    algebra: AlgebraId
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.algebra.rank:
            raise ValueError("coordinate length must equal the rank")

    @classmethod
    def from_root_coords(cls, algebra: AlgebraId, coords) -> "Weight":
        return cls(algebra, tuple(Fraction(c) for c in coords))

    @classmethod
    def from_fundamental(cls, algebra: AlgebraId, coeffs) -> "Weight":
        rs = build_root_system(algebra)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != algebra.rank:
            raise ValueError("coordinate length must equal the rank")
        coords = [
            sum((coeffs[k] * rs._cartan_inv[k][i] for k in range(algebra.rank)), ZERO)
            for i in range(algebra.rank)
        ]
        return cls(algebra, tuple(coords))

    @property
    def fundamental(self) -> tuple[Fraction, ...]:
        """Pairings against the simple coroots."""
        return _fund_coords(self.algebra, self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_dominant_integral(self) -> bool:
        return all(f >= 0 and Fraction(f).denominator == 1 for f in self.fundamental)

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, k) -> "Weight":
        k = Fraction(k)
        return Weight(self.algebra, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def _check(self, other: "Weight"):
        if self.algebra != other.algebra:
            raise ValueError(f"algebra mismatch: {self.algebra} vs {other.algebra}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "algebra": str(self.algebra),
                "basis": "fundamental",
                "coords": [str(c) for c in self.fundamental],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Weight":
        data = json.loads(text)
        aid = AlgebraId.parse(data["algebra"])
        coords = [Fraction(c) for c in data["coords"]]
        if data.get("basis", "fundamental") == "fundamental":
            return cls.from_fundamental(aid, coords)
        return cls.from_root_coords(aid, coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.fundamental) + ")"


class RootSystem:
    """Root data of one simple type, with the normalized inner product."""

    def __init__(self, algebra: AlgebraId):
        self.algebra = algebra
        n = algebra.rank
        cartan, d = _cartan_and_lengths(algebra)
        self.cartan_matrix = cartan
        self._d = d
        # 6 d_j is an integer (d_j is 1, 1/2 or 1/3)
        d6 = [int(6 * x) for x in d]
        self.gram6 = [[cartan[i][j] * d6[j] for j in range(n)] for i in range(n)]
        self._cartan_inv = inverse([[Fraction(x) for x in row] for row in cartan])
        # integer forms of the inverse: cartan_adjugate = cartan_det * cartan^-1
        self.cartan_det = int(det(cartan))
        self.cartan_adjugate = [
            [int(self.cartan_det * x) for x in row] for row in self._cartan_inv
        ]
        self.form = [[self.cartan_adjugate[i][j] * d6[j] for j in range(n)] for i in range(n)]
        self.form_den = 6 * self.cartan_det

        self.simple_roots = [
            Weight(algebra, tuple(Fraction(1 if k == i else 0) for k in range(n)))
            for i in range(n)
        ]
        self.positive_roots = self._enumerate_positive_roots()
        self.fundamental_weights = [
            Weight(algebra, tuple(self._cartan_inv[k][i] for i in range(n)))
            for k in range(n)
        ]
        self.weyl_vector = Weight(
            algebra,
            tuple(sum((self._cartan_inv[k][i] for k in range(n)), ZERO) for i in range(n)),
        )
        self.highest_root = self._find_highest_root()
        theta = self.highest_root.coords
        self.dual_coxeter = int(1 + sum(theta[i] * d[i] for i in range(n)))

    def _enumerate_positive_roots(self) -> list[Weight]:
        n = self.algebra.rank
        cartan = self.cartan_matrix
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            new = []
            for r in frontier:
                for j in range(n):
                    p = sum(r[k] * cartan[k][j] for k in range(n))
                    s = tuple(r[k] - (p if k == j else 0) for k in range(n))
                    if s not in seen:
                        seen.add(s)
                        new.append(s)
            frontier = new
        pos = sorted(
            r for r in seen if all(c >= 0 for c in r)
        )
        return [Weight.from_root_coords(self.algebra, r) for r in pos]

    def _find_highest_root(self) -> Weight:
        n = self.algebra.rank
        for r in self.positive_roots:
            c = [int(x) for x in r.coords]
            fund = [sum(c[i] * self.cartan_matrix[i][j] for i in range(n)) for j in range(n)]
            norm = int_bilinear(self.form, fund, fund)  # form_den * (r|r)
            if all(f >= 0 for f in fund) and norm == 2 * self.form_den:
                return r
        raise InvariantError(
            f"no positive root of {self.algebra} is dominant with (r|r) = 2")

    @property
    def root_coord_set(self) -> frozenset:
        return frozenset(
            tuple(int(c) for c in r.coords) for r in self.positive_roots
        ) | frozenset(
            tuple(-int(c) for c in r.coords) for r in self.positive_roots
        )


@lru_cache(maxsize=None)
def build_root_system(algebra: AlgebraId) -> RootSystem:
    return RootSystem(algebra)


@lru_cache(maxsize=None)
def _fund_coords(algebra: AlgebraId, coords) -> tuple:
    rs = build_root_system(algebra)
    n = algebra.rank
    out = []
    for j in range(n):
        v = sum((coords[i] * rs.cartan_matrix[i][j] for i in range(n)), ZERO)
        # plain ints hash and compare much faster than Fractions
        out.append(int(v) if v.denominator == 1 else v)
    return tuple(out)


@lru_cache(maxsize=None)
def _weight_from_fund(algebra: AlgebraId, fund) -> "Weight":
    return Weight.from_fundamental(algebra, fund)


@lru_cache(maxsize=None)
def _reduce_to_dominant(algebra: AlgebraId, fund) -> tuple:
    """(dominant fund tuple, sign, length) for a fundamental-coords tuple."""
    rs = build_root_system(algebra)
    n = algebra.rank
    f = list(fund)
    cartan = rs.cartan_matrix
    length = 0
    while True:
        j = next((k for k in range(n) if f[k] < 0), None)
        if j is None:
            break
        fj = f[j]
        for k in range(n):
            f[k] -= fj * cartan[j][k]
        length += 1
    sign = 0 if any(x == 0 for x in f) else (-1) ** length
    return tuple(f), sign, length


def inner_product(lam: Weight, mu: Weight) -> Fraction:
    """Normalized invariant inner product of two weights."""
    lam._check(mu)
    rs = build_root_system(lam.algebra)
    f, df = scaled_vector(lam.fundamental)
    g, dg = scaled_vector(mu.fundamental)
    return Fraction(int_bilinear(rs.form, f, g), rs.form_den * df * dg)


def to_dominant(lam: Weight) -> tuple[Weight, int, int]:
    """Dominant Weyl-orbit representative, with determinant sign and length.

    Returns (dominant weight, sign, length) where sign is the determinant
    of the reducing Weyl element, or 0 if the weight lies on a wall, and
    length counts the simple reflections applied (lowest negative index
    first, so the trace is deterministic).
    """
    f, sign, length = _reduce_to_dominant(lam.algebra, lam.fundamental)
    return _weight_from_fund(lam.algebra, f), sign, length


def dual_weight(lam: Weight) -> Weight:
    """Highest weight of the dual module, -w0(lam)."""
    if not lam.is_dominant_integral():
        raise ValueError(f"dual_weight needs a dominant integral weight, got {lam}")
    return to_dominant(-lam)[0]


def weyl_orbit(lam: Weight) -> set[tuple[Fraction, ...]]:
    """All fundamental-coordinate tuples in the Weyl orbit of lam."""
    return weyl_orbit_fund(lam.algebra, lam.fundamental)


def weyl_orbit_fund(algebra: AlgebraId, start: tuple) -> set[tuple]:
    """The Weyl orbit of a fundamental-coordinate tuple, walked on the tuples."""
    n = algebra.rank
    cartan = build_root_system(algebra).cartan_matrix
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for f in frontier:
            for j in range(n):
                if f[j] == 0:
                    continue
                g = tuple(f[k] - f[j] * cartan[j][k] for k in range(n))
                if g not in seen:
                    seen.add(g)
                    new.append(g)
        frontier = new
    return seen
