"""The structure constants and lattice cocycle as they were computed before
the per-root tables, kept as references for the tests.

`ref_eps` runs `sign_cocycle_exponent` on the two roots it is given, and
`ref_bracket` and `ref_star` call it for every pair of root vectors they
multiply, building the root sum, the negative and the Cartan pairing as
tuples and sums on the way. `ref_cocycle_value` converts both lattice
vectors to ints and runs the same engine over the full Gram matrix;
`ref_bilinear` scales both vectors to integers and builds the Fraction that
`ref_pairing` returns and that `ref_dual_exponent` reduces mod 2 as a
Fraction.
"""
from __future__ import annotations

from fractions import Fraction

from liefusion.linalg import int_bilinear, scaled_vector
from liefusion.lattice import sign_cocycle_exponent


def ref_eps(alg, a, b) -> int:
    s = sign_cocycle_exponent(alg.cartan, a, b)
    return -1 if s % 2 else 1


def _ref_pairing(alg, root, i) -> int:
    return sum(root[k] * alg.cartan[k][i] for k in range(alg.rank))


def ref_bracket(alg, u: dict, v: dict) -> dict:
    out: dict = {}

    def add(lbl, c):
        if c:
            out[lbl] = out.get(lbl, 0) + c
            if not out[lbl]:
                del out[lbl]

    for la, ca in u.items():
        for lb, cb in v.items():
            c = ca * cb
            if la[0] == "h" and lb[0] == "h":
                continue
            if la[0] == "h":
                add(lb, c * _ref_pairing(alg, lb[1], la[1]))
            elif lb[0] == "h":
                add(la, -c * _ref_pairing(alg, la[1], lb[1]))
            else:
                ra, rb = la[1], lb[1]
                s = tuple(x + y for x, y in zip(ra, rb))
                if not any(s):
                    e = ref_eps(alg, ra, tuple(-x for x in ra))
                    for i in range(alg.rank):
                        if ra[i]:
                            add(("h", i), c * e * ra[i])
                elif s in alg.roots:
                    add(("x", s), c * ref_eps(alg, ra, rb))
    return out


def ref_star(alg, u: dict) -> dict:
    out: dict = {}
    for lbl, c in u.items():
        if lbl[0] == "h":
            out[lbl] = out.get(lbl, 0) + c
        else:
            r = lbl[1]
            nr = tuple(-x for x in r)
            out[("x", nr)] = out.get(("x", nr), 0) + c * ref_eps(alg, r, nr)
    return out


def ref_cocycle_value(lat, a, b) -> int:
    if not (lat.contains(a) and lat.contains(b)):
        raise ValueError("cocycle arguments must be lattice vectors")
    s = sign_cocycle_exponent(lat.gram, [int(x) for x in a], [int(x) for x in b])
    return -1 if s % 2 else 1


def ref_bilinear(m, den, x, y) -> Fraction:
    """x (m / den) y^T for an integer matrix m and rational vectors x, y."""
    x, dx = scaled_vector(x)
    y, dy = scaled_vector(y)
    return Fraction(int_bilinear(m, x, y), den * dx * dy)


def ref_pairing(lat, a, b) -> Fraction:
    return ref_bilinear(lat.gram, 1, a, b)


def ref_dual_exponent(dc, x, y) -> Fraction:
    return ref_bilinear(dc._w, dc._w_den, x, y) % 2
