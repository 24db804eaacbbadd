"""The saturated-diagram Freudenthal recursion that `dominant_character`
replaced, kept as the reference for the tests.

`ref_dominant_character` walks every weight of L(lam) (a BFS over depth
vectors t = lam - mu by simple roots), keeps the points whose dominant
representative lies under lam, and runs the recursion over the dominant
ones, reducing each alpha-string point to its dominant representative.
`ref_all_weights` spreads those multiplicities over the Weyl orbits.
"""
from __future__ import annotations

from fractions import Fraction

from liefusion.rootsys import _reduce_to_dominant, build_root_system, weyl_orbit_fund


def ref_dominant_character(lam) -> tuple[dict, int]:
    """(dominant fund tuple -> multiplicity, in recursion order; dim)."""
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix
    sgram = rs.gram6
    lam_f = lam.fundamental
    rho_ip = [sgram[i][i] // 2 for i in range(n)]
    lam_ip = [lam_f[i] * rho_ip[i] for i in range(n)]

    start_t = tuple([0] * n)
    points = {start_t}
    frontier = [start_t]
    dominants = [(lam_f, start_t)]

    def fund_of(t):
        return tuple(
            lam_f[j] - sum(t[k] * cartan[k][j] for k in range(n)) for j in range(n)
        )

    det = rs.cartan_det

    def below(dom_f) -> bool:
        diff = [lam_f[j] - dom_f[j] for j in range(n)]
        return all(c >= 0 and not c % det for c in rs.scaled_root_coords(diff))

    while frontier:
        new = []
        for t in frontier:
            for j in range(n):
                t2 = tuple(t[k] + (1 if k == j else 0) for k in range(n))
                if t2 in points:
                    continue
                f2 = fund_of(t2)
                dom_f, _, _ = _reduce_to_dominant(aid, f2)
                if below(dom_f):
                    points.add(t2)
                    new.append(t2)
                    if all(x >= 0 for x in f2):
                        dominants.append((f2, t2))
        frontier = new

    dominants.sort(key=lambda ft: sum(ft[1]))
    mults: dict = {lam_f: 1}
    pos_data = []
    for ac in rs.positive_root_coords:
        galpha = [sum(sgram[i][j] * ac[j] for j in range(n)) for i in range(n)]
        pos_data.append((
            tuple(sum(ac[i] * cartan[i][j] for i in range(n)) for j in range(n)),
            galpha,
            sum(ac[i] * galpha[i] for i in range(n)),
            sum(ac[i] * lam_ip[i] for i in range(n)),
        ))

    for f, t in dominants[1:]:
        total = 0
        for af, galpha, a_norm, a_lam in pos_data:
            base = a_lam - sum(t[i] * galpha[i] for i in range(n))
            k = 1
            while True:
                nu_f = tuple(f[j] + k * af[j] for j in range(n))
                dom_f, _, _ = _reduce_to_dominant(aid, nu_f)
                m = mults.get(dom_f, 0)
                if m == 0:
                    break
                total += m * (base + k * a_norm)
                k += 1
        t_norm = sum(t[i] * sgram[i][j] * t[j] for i in range(n) for j in range(n))
        t_lr = sum(t[i] * (lam_ip[i] + rho_ip[i]) for i in range(n))
        val = Fraction(2 * total, 2 * t_lr - t_norm)
        assert val.denominator == 1 and val >= 0
        if val:
            mults[f] = int(val)

    dim = sum(m * len(weyl_orbit_fund(aid, f)) for f, m in mults.items())
    return mults, dim


def ref_all_weights(aid, mults: dict) -> dict:
    """fund tuple -> multiplicity over every weight, orbit by orbit."""
    out = {}
    for f, m in mults.items():
        for g in weyl_orbit_fund(aid, f):
            out[g] = m
    return out
