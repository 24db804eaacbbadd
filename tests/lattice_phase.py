"""The structure phase of a lattice coset intertwiner, kept for the tests.

No check of the verification suite reads it: the tests pin its value at the
base point, its consistency relations under lattice shifts, and its refusal
of a source outside the stated coset or a vector off the rank. The phase
value of an exponent and the commutator exponent of the dual cocycle live
here too, since only the phase and the tests read them.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from liefusion.lattice import Cocycle, DualCocycle, IntegralLattice, _bilinear, _mod2


def phase_value(t: Fraction) -> complex:
    """e^{i pi t}."""
    return cmath.exp(1j * math.pi * float(t))


def commutator_exponent(lat: IntegralLattice, x, y) -> Fraction:
    """t with eps(x, y) / eps(y, x) = e^{i pi t} for the dual cocycle,
    reduced mod 2: x r y^T with r_ij = q_ij above the diagonal and -q_ij
    below it."""
    q = lat.gram
    n = lat.rank
    r = [[q[i][j] if i < j else (-q[i][j] if i > j else 0) for j in range(n)]
         for i in range(n)]
    return _mod2(*_bilinear(lat, r, x, y))


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
    lat._check_rank(mu0)
    u = [a - b for a, b in zip(mu, mu0)]
    if not lat.contains(u):
        raise ValueError("source does not lie in the stated coset")
    t = eps.exponent(lam, mu) + commutator_exponent(eps.lattice, u, lam) + lat.pairing(u, lam)
    return t % 2
