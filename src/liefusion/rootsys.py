"""Root systems, weights, and Weyl-group reductions for the simple types A-G.

Conventions. A weight is stored as its fundamental coordinates, the
pairings against the simple coroots, each an ``int`` when it is integral
and a ``Fraction`` otherwise. The Cartan matrix follows
``cartan[i][j] = 2(a_i|a_j)/(a_j|a_j)``, so the fundamental coordinates of
the simple root a_i are the row ``cartan[i]``, and root coordinates are
recovered through the integer adjugate as ``f adj(C) / det(C)``. The
invariant inner product is normalized so that long roots have squared
length 2; the comarks ``(omega_i|theta)`` are integers, so the
theta-pairing of an integral weight is an integer dot product.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

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


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Weight:
    """Exact weight of a fixed algebra, by its fundamental coordinates.

    Entries are normalized on construction, ints when integral and
    Fractions otherwise, so a weight built from root coordinates, from
    Fractions or from ints compares and hashes the same.
    """

    algebra: AlgebraId
    fundamental: tuple  # pairings against the simple coroots

    def __post_init__(self):
        f = self.fundamental
        if len(f) != self.algebra.rank:
            raise ValueError("coordinate length must equal the rank")
        if type(f) is not tuple or any(type(x) is not int for x in f):
            object.__setattr__(self, "fundamental", tuple(_exact(x) for x in f))

    @classmethod
    def from_fundamental(cls, algebra: AlgebraId, coeffs) -> "Weight":
        return cls(algebra, tuple(coeffs))

    @classmethod
    def from_root_coords(cls, algebra: AlgebraId, coords) -> "Weight":
        c = [_exact(x) for x in coords]
        if len(c) != algebra.rank:
            raise ValueError("coordinate length must equal the rank")
        cartan = build_root_system(algebra).cartan_matrix
        return cls(algebra, tuple(sum(map(mul, c, col)) for col in zip(*cartan)))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Root coordinates, over the simple-root basis."""
        rs = build_root_system(self.algebra)
        return tuple(Fraction(c, rs.cartan_det) for c in rs.scaled_root_coords(self.fundamental))

    def is_zero(self) -> bool:
        return not any(self.fundamental)

    def is_dominant_integral(self) -> bool:
        return all(type(f) is int and f >= 0 for f in self.fundamental)

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.algebra, tuple(map(add, self.fundamental, other.fundamental)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.algebra, tuple(map(sub, self.fundamental, other.fundamental)))

    def __neg__(self) -> "Weight":
        return Weight(self.algebra, tuple(-a for a in self.fundamental))

    def __mul__(self, k) -> "Weight":
        k = _exact(k)
        return Weight(self.algebra, tuple(k * a for a in self.fundamental))

    __rmul__ = __mul__

    def _check(self, other: "Weight"):
        if self.algebra != other.algebra:
            raise ValueError(f"algebra mismatch: {self.algebra} vs {other.algebra}")

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
        # integer forms of the inverse: cartan_adjugate = cartan_det * cartan^-1
        self.cartan_det = int(det(cartan))
        inv, den = inverse(cartan)
        self.cartan_adjugate = [[x * self.cartan_det // den for x in row] for row in inv]
        self.form = [[self.cartan_adjugate[i][j] * d6[j] for j in range(n)] for i in range(n)]
        self.form_den = 6 * self.cartan_det

        # the fundamental coordinates of a_i are the row cartan[i]
        self.simple_roots = [Weight(algebra, tuple(row)) for row in cartan]
        self.fundamental_weights = [
            Weight(algebra, tuple(1 if k == i else 0 for k in range(n))) for i in range(n)
        ]
        self.weyl_vector = Weight(algebra, (1,) * n)
        self.positive_root_coords = self._enumerate_positive_roots()
        self.positive_roots = [
            Weight(algebra, tuple(sum(map(mul, r, col)) for col in zip(*cartan)))
            for r in self.positive_root_coords
        ]
        theta, self.highest_root = self._find_highest_root()
        # (omega_i|theta) = theta_i d_i, an integer in every simple type
        self.comarks = tuple(int(t * x) for t, x in zip(theta, d))
        self.dual_coxeter = 1 + sum(self.comarks)

    def _enumerate_positive_roots(self) -> list[tuple[int, ...]]:
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
        return sorted(r for r in seen if all(c >= 0 for c in r))

    def _find_highest_root(self) -> tuple[tuple[int, ...], Weight]:
        for r, alpha in zip(self.positive_root_coords, self.positive_roots):
            fund = alpha.fundamental
            norm = int_bilinear(self.form, fund, fund)  # form_den * (r|r)
            if all(f >= 0 for f in fund) and norm == 2 * self.form_den:
                return r, alpha
        raise InvariantError(
            f"no positive root of {self.algebra} is dominant with (r|r) = 2")

    def scaled_root_coords(self, fund) -> tuple:
        """det(C) times the root coordinates of a fundamental tuple."""
        return tuple(sum(map(mul, fund, col)) for col in zip(*self.cartan_adjugate))

    @property
    def root_coord_set(self) -> frozenset:
        pos = frozenset(self.positive_root_coords)
        return pos | frozenset(tuple(-c for c in r) for r in pos)


@lru_cache(maxsize=None)
def build_root_system(algebra: AlgebraId) -> RootSystem:
    return RootSystem(algebra)


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
    return Weight(lam.algebra, f), sign, length


def dual_weight(lam: Weight) -> Weight:
    """Highest weight of the dual module, -w0(lam)."""
    if not lam.is_dominant_integral():
        raise ValueError(f"dual_weight needs a dominant integral weight, got {lam}")
    return to_dominant(-lam)[0]


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
