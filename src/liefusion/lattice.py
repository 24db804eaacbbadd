"""Even lattices, 2-cocycles, lattice fusion, and intertwiner phases.

Lattice vectors are coordinate vectors over a fixed basis of the lattice;
integer coordinates mean lattice membership, and dual-lattice vectors have
rational coordinates pairing integrally with the basis. Unit-modulus phases
are carried exactly as rational exponents t standing for e^{i pi t}.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import det, inverse

ZERO = Fraction(0)


def phase_value(t: Fraction) -> complex:
    return cmath.exp(1j * math.pi * float(t))


@dataclass(frozen=True)
class IntegralLattice:
    """Non-degenerate even lattice given by its exact Gram matrix."""

    gram: tuple

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        if any(not isinstance(g[i][j], int) for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be integral")
        if any(g[i][i] % 2 for i in range(n)):
            raise ValueError(f"lattice is odd: diagonal {[g[i][i] for i in range(n)]}")
        if det(g) == 0:
            raise ValueError("gram matrix is degenerate")

    @classmethod
    def from_rows(cls, rows) -> "IntegralLattice":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, a, b) -> Fraction:
        n = self.rank
        return sum(
            (Fraction(a[i]) * self.gram[i][j] * Fraction(b[j]) for i in range(n) for j in range(n)),
            ZERO,
        )

    def contains(self, v) -> bool:
        return all(Fraction(x).denominator == 1 for x in v)

    def dual_contains(self, v) -> bool:
        n = self.rank
        for i in range(n):
            p = sum((Fraction(v[k]) * self.gram[k][i] for k in range(n)), ZERO)
            if p.denominator != 1:
                return False
        return True

    def dual_basis(self) -> list[list[Fraction]]:
        """Columns of the inverse Gram: a basis of the dual lattice."""
        inv = inverse([[Fraction(x) for x in row] for row in self.gram])
        return [[inv[i][j] for i in range(self.rank)] for j in range(self.rank)]


def sign_cocycle_exponent(gram, a, b) -> int:
    """Exponent of the bimultiplicative sign cocycle: sum_{i>j} a_i b_j g_ij."""
    s = 0
    n = len(gram)
    for i in range(n):
        ai = a[i]
        if not ai:
            continue
        row = gram[i]
        for j in range(i):
            if b[j]:
                s += ai * b[j] * row[j]
    return s


@dataclass(frozen=True)
class Cocycle:
    """Bimultiplicative +-1 cocycle on an even lattice.

    eps(e_i, e_j) = (-1)^{(e_i|e_j)} below the diagonal and 1 on or above
    it; the commutator is then (-1)^{(a|b)} and eps(a, 0) = 1.
    """

    lattice: IntegralLattice

    @property
    def basis_values(self) -> list[list[int]]:
        n = self.lattice.rank
        e = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = [0] * n
                w = [0] * n
                v[i] = w[j] = 1
                e[i][j] = self.value(v, w)
        return e

    def value(self, a, b) -> int:
        if not (self.lattice.contains(a) and self.lattice.contains(b)):
            raise ValueError("cocycle arguments must be lattice vectors")
        s = sign_cocycle_exponent(self.lattice.gram, [int(x) for x in a], [int(x) for x in b])
        return -1 if s % 2 else 1

    def commutator(self, a, b) -> int:
        return self.value(a, b) * self.value(b, a)


def build_cocycle(lat: IntegralLattice) -> Cocycle:
    return Cocycle(lat)


class DualCocycle:
    """Phase-valued cocycle on the dual lattice.

    Built so that the cocycle identity holds identically (the exponent is
    bilinear) and the commutator restricted to the lattice itself equals
    (-1)^{(a|b)}. Values are exact rational exponents of e^{i pi t}.
    """

    def __init__(self, lat: IntegralLattice):
        self.lattice = lat
        n = lat.rank
        q = [[Fraction(x) for x in row] for row in lat.gram]
        r = [[Fraction(q[i][j]) if i < j else (-Fraction(q[i][j]) if i > j else ZERO)
              for j in range(n)] for i in range(n)]
        qinv = inverse(q)
        t = _mat3(qinv, r, qinv)
        s = [[t[i][j] if i > j else ZERO for j in range(n)] for i in range(n)]
        self._w = _mat3(q, s, q)
        self._r = r

    def exponent(self, x, y) -> Fraction:
        """t with eps(x, y) = e^{i pi t}, reduced mod 2."""
        return _bilinear(self._w, x, y) % 2

    def value(self, x, y) -> complex:
        return phase_value(self.exponent(x, y))

    def commutator_exponent(self, x, y) -> Fraction:
        return _bilinear(self._r, x, y) % 2


def _mat3(a, b, c):
    from .linalg import matmul

    return matmul(matmul(a, b), c)


def _bilinear(m, x, y) -> Fraction:
    n = len(m)
    return sum(
        (Fraction(x[i]) * m[i][j] * Fraction(y[j]) for i in range(n) for j in range(n)),
        ZERO,
    )


def lattice_fusion(lat: IntegralLattice, lam0, mu0, nu0) -> int:
    """1 when nu0 - lam0 - mu0 lies in the lattice, else 0."""
    for v in (lam0, mu0, nu0):
        if not lat.dual_contains(v):
            raise ValueError(f"{v} is not a dual-lattice vector")
    diff = [Fraction(a) - Fraction(b) - Fraction(c) for a, b, c in zip(nu0, lam0, mu0)]
    return 1 if lat.contains(diff) else 0


def intertwiner_phase(lat: IntegralLattice, eps: Cocycle | DualCocycle,
                      lam, mu, mu0) -> complex:
    """The structure phase kappa(lam, mu) of the coset intertwiner.

    kappa(lam, mu) = eps(lam, mu) * omega(mu - mu0, lam) * e^{i pi (mu-mu0|lam)}
    where omega is the commutator of eps. Requires mu - mu0 in the lattice.
    """
    return phase_value(intertwiner_phase_exponent(lat, eps, lam, mu, mu0))


def intertwiner_phase_exponent(lat: IntegralLattice, eps: Cocycle | DualCocycle,
                               lam, mu, mu0) -> Fraction:
    if isinstance(eps, Cocycle):
        eps = DualCocycle(eps.lattice)
    lam = [Fraction(x) for x in lam]
    mu = [Fraction(x) for x in mu]
    mu0 = [Fraction(x) for x in mu0]
    if not (lat.dual_contains(lam) and lat.dual_contains(mu)):
        raise ValueError("charge and source must be dual-lattice vectors")
    u = [a - b for a, b in zip(mu, mu0)]
    if not lat.contains(u):
        raise ValueError("source does not lie in the stated coset")
    t = eps.exponent(lam, mu) + eps.commutator_exponent(u, lam) + lat.pairing(u, lam)
    return t % 2
