"""Even lattices, 2-cocycles and their phases, and lattice fusion.

Lattice vectors are coordinate vectors over a fixed basis of the lattice;
integer coordinates mean lattice membership, and dual-lattice vectors have
rational coordinates pairing integrally with the basis. Unit-modulus phases
are carried exactly as rational exponents t standing for e^{i pi t}.

Bilinear forms are carried as integer matrices over one fixed denominator,
linalg's (numerators, den) pairs (1 for the Gram matrix, the square of the
inverse Gram's den for the dual cocycle's exponent form). A rational vector is scaled to integers over the lcm of
its denominators, so every pairing is an integer sum and one Fraction per
result, reduced mod 2 in integers where it is a phase exponent; lattice
vectors with int coordinates need no scaling at all. Every vector is checked
against the rank first: a vector of another length is a ValueError, never
cut or padded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .linalg import det, int_bilinear, inverse, matmul, scaled_vector


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
        """Lattice of a Gram matrix given as rows; a non-integer entry is a ValueError."""
        def entry(x):
            if int(x) != x:
                raise ValueError(f"gram matrix must be integral: entry {x}")
            return int(x)

        return cls(tuple(tuple(map(entry, row)) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check_rank(self, v) -> None:
        """Raise ValueError unless v has one coordinate per basis vector."""
        if len(v) != len(self.gram):
            raise ValueError(f"the lattice has rank {self.rank}, got a vector "
                             f"of length {len(v)}")

    def pairing(self, a, b) -> Fraction:
        return Fraction(*_bilinear(self, self.gram, a, b))

    def contains(self, v) -> bool:
        self._check_rank(v)
        for x in v:
            if type(x) is not int and x.denominator != 1:
                return False
        return True

    def dual_contains(self, v) -> bool:
        self._check_rank(v)
        v, d = scaled_vector(v)
        return all(sum(map(mul, v, col)) % d == 0 for col in zip(*self.gram))

    def dual_basis(self) -> list[list[Fraction]]:
        """Columns of the inverse Gram: a basis of the dual lattice."""
        inv, d = inverse(self.gram)
        return [[Fraction(row[j], d) for row in inv] for j in range(self.rank)]


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
    it; the commutator is then (-1)^{(a|b)} and eps(a, 0) = 1. The exponent
    `sign_cocycle_exponent` is bilinear, so only its parities on pairs of
    unit vectors matter: they are read from it once, and `value` sums
    a_i b_j over the strictly-lower pairs (i, j) where the parity is odd.
    """

    lattice: IntegralLattice
    _odd_below: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.lattice.rank
        units = [[int(k == i) for k in range(n)] for i in range(n)]
        object.__setattr__(self, "_odd_below", tuple(
            (i, j) for i in range(n) for j in range(n)
            if sign_cocycle_exponent(self.lattice.gram, units[i], units[j]) % 2
        ))

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
        return -1 if sum(a[i] * b[j] for i, j in self._odd_below) % 2 else 1

    def commutator(self, a, b) -> int:
        return self.value(a, b) * self.value(b, a)


class DualCocycle:
    """Phase-valued cocycle on the dual lattice.

    Built so that the cocycle identity holds identically (the exponent is
    bilinear) and the commutator restricted to the lattice itself equals
    (-1)^{(a|b)}. Values are exact rational exponents of e^{i pi t}.
    """

    def __init__(self, lat: IntegralLattice):
        self.lattice = lat
        n = lat.rank
        q = lat.gram
        r = [[q[i][j] if i < j else (-q[i][j] if i > j else 0) for j in range(n)]
             for i in range(n)]
        qinv = inverse(q)
        t, d = matmul(matmul(qinv, (r, 1)), qinv)
        s = [[t[i][j] if i > j else 0 for j in range(n)] for i in range(n)]
        # an integer matrix over a fixed denominator
        self._w, self._w_den = matmul(matmul((q, 1), (s, d)), (q, 1))

    def exponent(self, x, y) -> Fraction:
        """t with eps(x, y) = e^{i pi t}, reduced mod 2."""
        t, d = _bilinear(self.lattice, self._w, x, y)
        return _mod2(t, d * self._w_den)


def _bilinear(lat: IntegralLattice, m, x, y) -> tuple[int, int]:
    """(t, d) with x m y^T = t / d, for an integer matrix m and rational
    vectors x, y of the lattice's rank."""
    lat._check_rank(x)
    lat._check_rank(y)
    x, dx = scaled_vector(x)
    y, dy = scaled_vector(y)
    return int_bilinear(m, x, y), dx * dy


def _mod2(t: int, d: int) -> Fraction:
    """t / d reduced mod 2, for d > 0."""
    return Fraction(t % (2 * d), d)


def lattice_fusion(lat: IntegralLattice, lam0, mu0, nu0) -> int:
    """1 when nu0 - lam0 - mu0 lies in the lattice, else 0."""
    for v in (lam0, mu0, nu0):
        if not lat.dual_contains(v):
            raise ValueError(f"{v} is not a dual-lattice vector")
    diff = [Fraction(a) - Fraction(b) - Fraction(c) for a, b, c in zip(nu0, lam0, mu0)]
    return 1 if lat.contains(diff) else 0
