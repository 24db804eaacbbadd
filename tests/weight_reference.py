"""The root-coordinate weight arithmetic that `Weight` replaced, kept as the
reference for the tests.

`RefWeight` stores exact Fraction coordinates over the simple roots, reads
its fundamental coordinates through the Cartan matrix, and is built from
fundamental coordinates through the Fraction inverse of the Cartan matrix,
computed here. `ref_to_dominant` reflects in the root basis, and
`ref_fusion_decomposition` is the Kac-Walton folding loop over such weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from liefusion import linalg
from liefusion.rootsys import AlgebraId, build_root_system
from liefusion.tensor import tensor_decomposition
from rational_view import rational

ZERO = Fraction(0)


@lru_cache(maxsize=None)
def cartan_inverse(aid: AlgebraId):
    cartan = build_root_system(aid).cartan_matrix
    return rational(linalg.inverse(cartan))


@dataclass(frozen=True)
class RefWeight:
    algebra: AlgebraId
    coords: tuple

    @classmethod
    def from_root_coords(cls, aid, coords) -> "RefWeight":
        return cls(aid, tuple(Fraction(c) for c in coords))

    @classmethod
    def from_fundamental(cls, aid, coeffs) -> "RefWeight":
        inv = cartan_inverse(aid)
        n = aid.rank
        coeffs = [Fraction(c) for c in coeffs]
        return cls(aid, tuple(
            sum((coeffs[k] * inv[k][i] for k in range(n)), ZERO) for i in range(n)
        ))

    @property
    def fundamental(self) -> tuple:
        cartan = build_root_system(self.algebra).cartan_matrix
        n = self.algebra.rank
        out = []
        for j in range(n):
            v = sum((self.coords[i] * cartan[i][j] for i in range(n)), ZERO)
            out.append(int(v) if v.denominator == 1 else v)
        return tuple(out)

    def __add__(self, other):
        return RefWeight(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return RefWeight(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return RefWeight(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, k):
        k = Fraction(k)
        return RefWeight(self.algebra, tuple(k * a for a in self.coords))

    __rmul__ = __mul__


def ref_inner_product(lam: RefWeight, mu: RefWeight) -> Fraction:
    """The Fraction Gram double sum over root coordinates."""
    rs = build_root_system(lam.algebra)
    n = lam.algebra.rank
    gram = [[Fraction(rs.cartan_matrix[i][j]) * rs._d[j] for j in range(n)] for i in range(n)]
    return sum(
        (lam.coords[i] * gram[i][j] * mu.coords[j] for i in range(n) for j in range(n)),
        ZERO,
    )


def ref_to_dominant(lam: RefWeight) -> tuple[RefWeight, int, int]:
    """Reflect in the lowest simple root with a negative pairing, in the root
    basis, until dominant: (dominant weight, sign or 0 on a wall, length)."""
    coords = list(lam.coords)
    length = 0
    while True:
        f = RefWeight(lam.algebra, tuple(coords)).fundamental
        j = next((k for k in range(len(f)) if f[k] < 0), None)
        if j is None:
            break
        coords[j] -= f[j]
        length += 1
    sign = 0 if any(x == 0 for x in f) else (-1) ** length
    return RefWeight(lam.algebra, tuple(coords)), sign, length


def ref_fusion_decomposition(lam, mu, level: int) -> dict:
    """The Weight-based Kac-Walton folding loop, on reference weights."""
    aid = lam.algebra
    rs = build_root_system(aid)
    rho = RefWeight.from_fundamental(aid, [1] * aid.rank)
    theta = RefWeight.from_fundamental(aid, rs.highest_root.fundamental)
    kmax = level + rs.dual_coxeter
    out: dict = {}
    for nu_f, mult in tensor_decomposition(lam, mu).items():
        x = RefWeight.from_fundamental(aid, nu_f) + rho
        sign = 1
        while True:
            x, s, _ = ref_to_dominant(x)
            if s == 0:
                sign = 0
                break
            sign *= s
            t = ref_inner_product(x, theta)
            if t < kmax:
                break
            if t == kmax:
                sign = 0
                break
            x = x - (t - kmax) * theta
            sign = -sign
        if sign == 0:
            continue
        key = (x - rho).fundamental
        out[key] = out.get(key, 0) + sign * mult
        if not out[key]:
            del out[key]
    return out
