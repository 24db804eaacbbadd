"""Weight multiplicities, characters, and exact realizations of irreducibles.

Multiplicities come from the Freudenthal recursion in integer arithmetic,
run over the dominant chain: the dominant weights under the highest one,
reached from it by subtracting positive roots. Each alpha-string sum of the
recursion is carried as running sums stored at the dominant weights, so
only a string that leaves the dominant chamber at once is walked. Each
multiplicity is written
onto its Weyl orbit once, so one table per irreducible holds every weight;
the recursion, the dimension check, ``all_weights`` and every reader of a
weight-space dimension use that table.

Module realizations are built layer by layer from the highest weight, in
integer arithmetic. The basis vectors are monomials F_i1 ... F_ik v_lam, so
the contravariant (Shapovalov-style) form on them takes integer values (the
Kostant Z-form): each weight block carries its exact Gram matrix as ints,
and each generator block is one (numerators, den) pair in lowest terms. The
spanning vectors F_i(b) of each weight space are filtered through the
candidate Gram matrix, whose rank is cross-checked against the Freudenthal
multiplicity. No orthogonalization is performed.

Per weight f the work is a few block products. For each source block
src_i = f + alpha_i, the blocks M_ij = F_j E_i + delta_ij <src_i, alpha_i^vee>
over every source src_j = f + alpha_j form one (numerators, den) pair: the
matrix of E_i on the candidates F_j b. The candidate Gram block is
gram[src_i] M_ij, an integer matrix times that pair; it must divide back to
integers, or the build stops with InvariantError. The new E-blocks out of f
are columns of M_ij. The form on L(lam) is nondegenerate, so the rows of the
rref of the candidate Gram (`linalg.rref`, fraction-free) already
expand every candidate over the pivot ones: those rows are the F-blocks
into f. Where the multiplicity is 1 and every 2x2 minor of the Gram
through its first nonzero diagonal entry vanishes, the rank is exactly 1
and that entry's row, over the entry, is the rref: no elimination runs.
Any other Gram goes through `linalg.rref`, so a wrong rank is still
caught with the true one.

Where every source is one-dimensional, every block M_ij is 1x1 and is
carried as one number num / den: the F-row at src_j + alpha_i times the
E-column at src_j, plus delta_ij src_i[i] den. A weight with one candidate
(one source, of dimension 1; most weights, and every weight of A1) takes a
scalar step: its Gram entry is gram[src] num / den under the same
integrality check, its rank, 1 or 0, is checked against the multiplicity,
and the pairs are stored as they are, the E-block num / den reduced by one
gcd and the F-block [[1]]; no elimination runs. A weight with two or more
one-dimensional sources builds each row of M and each Gram entry
gram[src_i] M_ij from those numbers, with no block product, and its Gram
then goes through the rank-one test or `linalg.rref` as above. Either
way the pairs, Gram entries and `parent` entries are those the matrix path
gives.

Every matrix here stays in linalg's (numerators, den) form: `full_matrix`
returns one such pair, and `hom_space_basis` reads each Gram inverse as
one. Rationals are built only on the intertwiner route: its sparse tensor
vectors and the columns of an `IntertwinerMap` are handed out as Fractions.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from . import linalg
from .errors import InvariantError
from .rootsys import Weight, build_root_system, weyl_orbit_fund

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_CAP = 512


class CapExceeded(Exception):
    """A module was larger than the configured dimension cap."""


def check_cap(dim: int, what: str) -> None:
    """Refuse dim above the module cap: LIEFUSION_CAP, default 512.

    A cap that is not a positive integer is a usage error (ValueError).
    """
    raw = os.environ.get("LIEFUSION_CAP", str(DEFAULT_CAP))
    cap = int(raw) if raw.strip().isdecimal() else 0
    if cap < 1:
        raise ValueError(f"LIEFUSION_CAP must be a positive integer, got {raw!r}")
    if dim > cap:
        raise CapExceeded(f"{what} = {dim} exceeds cap {cap} (set LIEFUSION_CAP to raise it)")


@lru_cache(maxsize=None)
def weyl_dimension(lam: Weight) -> int:
    """Weyl dimension formula, exact, in integer arithmetic.

    For alpha = sum_j a_j alpha_j, (lam+rho|alpha) = sum_j a_j (f_j+1)
    (alpha_j|alpha_j)/2 with f the fundamental coordinates of lam. Each
    factor is scaled by 6 so that s_j = 3 (alpha_j|alpha_j) is an integer;
    the scale cancels in the ratio. Weights that are not dominant integral
    are rejected with ValueError.
    """
    if not lam.is_dominant_integral():
        raise ValueError(f"{lam} is not dominant integral")
    rs = build_root_system(lam.algebra)
    n = lam.algebra.rank
    s = [rs.gram6[j][j] // 2 for j in range(n)]
    f = lam.fundamental
    num = den = 1
    for a in rs.positive_root_coords:
        num *= sum(a[j] * (f[j] + 1) * s[j] for j in range(n))
        den *= sum(a[j] * s[j] for j in range(n))
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Weyl dimension of L({lam}) is {Fraction(num, den)}, not an integer")
    return int(dim)


@dataclass(frozen=True)
class DominantCharacter:
    """Multiplicities of an irreducible: the dominant part and the full table."""

    highest_weight: Weight
    mults: dict  # dominant fundamental tuple -> positive int, by increasing depth
    weights: dict  # fundamental tuple of every weight -> positive int
    dim: int


@lru_cache(maxsize=None)
def dominant_character(lam: Weight) -> DominantCharacter:
    """Freudenthal multiplicities of L(lam), over every weight.

    The dominant weights mu <= lam are reached from lam by subtracting
    positive roots while the result stays dominant (Stembridge, "The
    partial order of dominant weights", Adv. Math. 136, 1998). The
    recursion runs over them by increasing depth t = lam - mu, an integer
    root-coordinate vector, with all inner products carried at a fixed
    common denominator; each multiplicity is written onto its whole Weyl
    orbit, which makes the one table of every weight.

    Each alpha-string sum is kept as two running sums per dominant weight
    (the saving Moody and Patera give, Bull. AMS 7, 1982): the string from
    mu reads the sums of mu + alpha when that is a dominant weight already
    done, and is walked only when no point of it is, so A1 L(n) costs O(n),
    not O(n^2).
    """
    if not lam.is_dominant_integral():
        raise ValueError(f"{lam} is not dominant integral")
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank

    # all inner products are carried scaled by 6, as in gram6
    sgram = rs.gram6
    lam_f = lam.fundamental
    # 6 (rho|a_i) = 3 (a_i|a_i), and (lam|a_i) = lam_i (rho|a_i)
    rho_ip = [sgram[i][i] // 2 for i in range(n)]
    lam_ip = [lam_f[i] * rho_ip[i] for i in range(n)]
    # per positive root: fundamental coords, root coords, (e_i|a) scaled,
    # (a|a) scaled, (lam|a) scaled
    pos_data = []
    for ac, alpha in zip(rs.positive_root_coords, rs.positive_roots):
        galpha = [sum(sgram[i][j] * ac[j] for j in range(n)) for i in range(n)]
        pos_data.append((
            alpha.fundamental,
            ac,
            galpha,
            sum(map(mul, ac, galpha)),
            sum(map(mul, ac, lam_ip)),
        ))

    # the dominant chain: BFS from lam by positive roots, keeping the depth
    depth = {lam_f: (0,) * n}
    frontier = [lam_f]
    while frontier:
        new = []
        for f in frontier:
            t = depth[f]
            for af, ac, _, _, _ in pos_data:
                g = tuple(map(sub, f, af))
                if min(g) >= 0 and g not in depth:
                    depth[g] = tuple(map(add, t, ac))
                    new.append(g)
        frontier = new
    # increasing depth, and decreasing t lexicographically within one depth:
    # a fixed order, which mults, weights and every table built from them
    # inherit
    chain = sorted(depth, key=lambda f: (sum(depth[f]), [-x for x in depth[f]]))

    mults: dict = {lam_f: 1}
    weights = dict.fromkeys(weyl_orbit_fund(aid, lam_f), 1)
    # the string sums of every dominant weight done so far, per positive
    # root a: nu -> [(S1, S2), ...], S1 = sum_k m(nu + k a) and
    # S2 = sum_k k m(nu + k a) over k >= 1
    done = {lam_f: [(0, 0)] * len(pos_data)}
    for f in chain[1:]:
        t = depth[f]
        total = 0
        sums = []
        for r, (af, _, galpha, a_norm, a_lam) in enumerate(pos_data):
            # sum_k m(mu + k a) (mu + k a | a) = (mu|a) S1 + (a|a) S2. The
            # table already holds mu + k a when it is a weight: dom(mu + k a)
            # is >= mu + k a, so its depth is strictly below that of mu and
            # its orbit was written earlier in the chain. Each coordinate of
            # mu + k a is monotone in k, so the dominant points of the string
            # come first: either mu + a is a dominant weight already done,
            # whose sums hold the rest of the string, or no point of the
            # string is dominant, and it is walked to its end
            nu = tuple(map(add, f, af))
            if nu in done:
                m = weights[nu]
                t1, t2 = done[nu][r]
                s1, s2 = m + t1, m + t1 + t2
            else:
                s1 = s2 = k = 0
                while m := weights.get(nu, 0):
                    k += 1
                    s1 += m
                    s2 += k * m
                    nu = tuple(map(add, nu, af))
            sums.append((s1, s2))
            # (mu|a) scaled = a_lam - (t|a)_s
            total += (a_lam - sum(map(mul, t, galpha))) * s1 + a_norm * s2
        # denom scaled: (lam+rho)^2 - (mu+rho)^2 with mu = lam - t
        t_norm = sum(t[i] * sgram[i][j] * t[j] for i in range(n) for j in range(n))
        t_lr = sum(t[i] * (lam_ip[i] + rho_ip[i]) for i in range(n))
        denom = 2 * t_lr - t_norm
        val, rem = divmod(2 * total, denom)
        if rem or val < 0:
            raise InvariantError(
                f"Freudenthal multiplicity {Fraction(2 * total, denom)} of {f} "
                f"in L({lam}) is not a nonnegative integer"
            )
        if val:
            mults[f] = val
            weights.update(dict.fromkeys(weyl_orbit_fund(aid, f), val))
            done[f] = sums

    dim = sum(weights.values())
    wd = weyl_dimension(lam)
    if dim != wd:
        raise InvariantError(f"character dimension {dim} of L({lam}) != Weyl formula {wd}")
    return DominantCharacter(lam, mults, weights, dim)


def weight_multiplicity(lam: Weight, mu: Weight) -> int:
    """dim of the mu weight space of L(lam)."""
    lam._check(mu)
    return dominant_character(lam).weights.get(mu.fundamental, 0)


def full_character(lam: Weight) -> DominantCharacter:
    """The character of L(lam), guarded by the module cap."""
    check_cap(weyl_dimension(lam), f"dim L({lam})")
    return dominant_character(lam)


def all_weights(lam: Weight) -> dict:
    """fundamental-coordinate tuple -> multiplicity, over every weight."""
    return full_character(lam).weights


class ModuleRealization:
    """Exact matrices of the Chevalley generators on a weight basis.

    Basis vectors are grouped into weight blocks. ``f_block[(i, f)]`` maps
    block f to block f - alpha_i; ``e_block[(i, f)]`` maps block f to block
    f + alpha_i; each is a (numerators, den) pair of an int matrix and an
    int den > 0 sharing no factor, the block being numerators / den.
    ``gram[f]`` is the contravariant Gram matrix of block f, in ints.
    ``parent[(f, k)]`` records which F_i(previous basis vector) the k-th
    basis vector of block f is.
    """

    def __init__(self, lam: Weight):
        self.algebra = lam.algebra
        self.highest_weight = lam
        self.blocks: list[tuple] = []  # fundamental tuples in build order
        self.block_dim: dict = {}
        self.gram: dict = {}
        self.f_block: dict = {}
        self.e_block: dict = {}
        self.parent: dict = {}
        self.dim = 0

    def _offsets(self) -> dict:
        off, at = {}, 0
        for f in self.blocks:
            off[f] = at
            at += self.block_dim[f]
        return off

    def full_matrix(self, kind: str, i: int) -> tuple[list[list[int]], int]:
        """Dense dim x dim matrix of E_i, F_i or H_i, as (numerators, den)
        over the lcm of the blocks' dens."""
        off = self._offsets()
        m = [[0] * self.dim for _ in range(self.dim)]
        if kind == "H":
            for f in self.blocks:
                for k in range(self.block_dim[f]):
                    m[off[f] + k][off[f] + k] = f[i]
            return m, 1
        step = 1 if kind == "E" else -1
        cartan = build_root_system(self.algebra).cartan_matrix[i]
        blocks = {f: pair for (j, f), pair in
                  (self.e_block if kind == "E" else self.f_block).items() if j == i}
        d = math.lcm(*(den for _, den in blocks.values()))
        for f, (nums, den) in blocks.items():
            tgt = tuple(x + step * c for x, c in zip(f, cartan))
            for row, r in enumerate(nums):
                for col, x in enumerate(r):
                    m[off[tgt] + row][off[f] + col] = x * (d // den)
        return m, d


def _rank_one_rref(g: list) -> tuple | None:
    """The rref of a symmetric int matrix g of rank 1, as ``linalg.rref``
    gives it up to the scale of the row, or None when the rank is not 1.

    c0 is the first column with g[c0][c0] != 0. The rank is 1 exactly when
    every 2x2 minor through c0 vanishes: g[a][b] g[c0][c0] = g[a][c0]
    g[c0][b]. Then every row is a multiple of row c0, whose entries before
    c0 vanish by symmetry, so the rref is the one row g[c0] / g[c0][c0]
    with pivot c0.
    """
    c0 = next((c for c, row in enumerate(g) if row[c]), None)
    if c0 is None:
        return None
    row0 = g[c0]
    p = row0[c0]
    if any(x * p != ra[c0] * y for ra in g for x, y in zip(ra, row0)):
        return None
    return ([row0], p, [c0]) if p > 0 else ([[-x for x in row0]], -p, [c0])


@lru_cache(maxsize=None)
def realize_module(lam: Weight) -> ModuleRealization:
    """Build L(lam) with exact generator matrices and Gram blocks.

    The module cap is checked when the module is built (through
    ``all_weights``); a module already in the cache is returned as it is.
    """
    weights = all_weights(lam)
    aid = lam.algebra
    rs = build_root_system(aid)
    cartan = rs.cartan_matrix

    # depth of a weight = height of (lam - mu) in the root basis; the row
    # sums of the Cartan adjugate are det times the heights of the
    # fundamental weights
    top = lam.fundamental
    heights = [sum(row) for row in rs.cartan_adjugate]
    det = rs.cartan_det
    by_depth: dict[int, list] = {}
    for f in weights:
        d, rem = divmod(sum((a - b) * h for a, b, h in zip(top, f, heights)), det)
        if rem:
            raise InvariantError(f"weight {f} of L({lam}) is off the root lattice coset")
        by_depth.setdefault(d, []).append(f)

    mod = ModuleRealization(lam)
    mod.blocks.append(top)
    mod.block_dim[top] = 1
    mod.gram[top] = [[1]]
    mod.dim = 1

    def up(f, i):
        return tuple(map(add, f, cartan[i]))

    def not_integral(src, f):
        return InvariantError(f"candidate Gram block of source {src} at weight "
                              f"{f} of L({lam}) is not integral")

    def rank_error(rank, f, ncands):
        return InvariantError(f"Gram rank {rank} != Freudenthal multiplicity "
                              f"{weights[f]} at weight {f} of L({lam}) "
                              f"({ncands} candidates)")

    def m_entry(i, src_i, j, src_j):
        # M_ij between one-dimensional blocks, as (num, den): the F-row at
        # src_j + alpha_i times the E-column at src_j, plus delta_ij src_i[i]
        e = mod.e_block.get((i, src_j))
        if e:
            (fnums, fden), (enums, den) = mod.f_block[(j, up(src_j, i))], e
            den *= fden
            num = sum(map(mul, fnums[0], [r[0] for r in enums]))
        else:
            num, den = 0, 1
        return (num + src_i[i] * den, den) if i == j else (num, den)

    for d in sorted(by_depth):
        if d == 0:
            continue
        for f in sorted(by_depth[d]):
            # source blocks f + alpha_i; the candidates are F_i b over the
            # basis vectors b of each source, in source order
            srcs = [(i, src) for i, row in enumerate(cartan)
                    if (src := tuple(map(add, f, row))) in mod.block_dim]
            target_rank = weights[f]

            if len(srcs) == 1 and mod.block_dim[srcs[0][1]] == 1:
                # one candidate F_i b: every block is 1x1. M_ii is the number
                # num / den, the Gram block gram[src] num / den, and its rank
                # is 1, or 0 when that entry is 0; the F-block is [[1]]
                (i, src), = srcs
                num, den = m_entry(i, src, i, src)
                x, rem = divmod(mod.gram[src][0][0] * num, den)
                if rem:
                    raise not_integral(src, f)
                rank = 1 if x else 0
                if rank != target_rank:
                    raise rank_error(rank, f, 1)
                q = math.gcd(num, den)
                mod.blocks.append(f)
                mod.block_dim[f] = 1
                mod.gram[f] = [[x]]
                mod.parent[(f, 0)] = (i, 0)
                mod.dim += 1
                mod.f_block[(i, src)] = ([[1]], 1)
                mod.e_block[(i, f)] = ([[num // q]], den // q)
                continue

            cands = [(i, b) for i, src in srcs for b in range(mod.block_dim[src])]
            m = {}
            if len(cands) == len(srcs):
                # every source is one-dimensional: each M_ij is one number,
                # m[i] is one row over the lcm of its dens, and the Gram entry
                # gram[src_i] M_ij takes the same integrality check per source
                g = [[0] * len(cands) for _ in cands]
                for a, (i, src_i) in enumerate(srcs):
                    row = [m_entry(i, src_i, j, src_j) for j, src_j in srcs]
                    den = math.lcm(*(q for _, q in row))
                    m[i] = linalg.lowest([[x * (den // q) for x, q in row]], den)
                    (nums,), den = m[i]
                    s = mod.gram[src_i][0][0]
                    for b in range(a, len(cands)):
                        x, rem = divmod(s * nums[b], den)
                        if rem:
                            raise not_integral(src_i, f)
                        g[a][b] = g[b][a] = x
            else:
                # m[i] is the row of blocks M_ij = F_j E_i + delta_ij <src_i, a_i^vee>
                # over every source j, one (numerators, den) pair: the matrix
                # of E_i on the candidates. By contravariance the candidate
                # Gram block is <F_i b, F_j b'> = (gram[src_i] M_ij)[b][b']
                for i, src_i in srcs:
                    row = []
                    for j, src_j in srcs:
                        e = mod.e_block.get((i, src_j))
                        blk = (linalg.matmul(mod.f_block[(j, up(src_j, i))], e) if e else
                               ([[0] * mod.block_dim[src_j]
                                 for _ in range(mod.block_dim[src_i])], 1))
                        if i == j:
                            for b in range(len(blk[0])):
                                blk[0][b][b] += src_i[i] * blk[1]
                        row.append(blk)
                    den = math.lcm(*(q for _, q in row))
                    m[i] = linalg.lowest([[x * (den // q) for nums, q in row for x in nums[b]]
                                          for b in range(mod.block_dim[src_i])], den)

                # the Gram matrix is symmetric: one product per source row for
                # the blocks on and right of the diagonal, mirrored below it.
                # It is integral (the Kostant Z-form), so each product divides
                # back
                g = [[] for _ in cands]
                at = 0
                for i, src_i in srcs:
                    nums, den = m[i]
                    prod, den = linalg.matmul((mod.gram[src_i], 1),
                                              ([r[at:] for r in nums], den))
                    if any(x % den for r in prod for x in r):
                        raise not_integral(src_i, f)
                    for b, grow in enumerate(prod):
                        g[at + b] = [g[c][at + b] for c in range(at)] + [x // den for x in grow]
                    at += mod.block_dim[src_i]

            rank_one = _rank_one_rref(g) if target_rank == 1 else None
            red, den, pivots = rank_one or linalg.rref(g)
            if len(pivots) != target_rank:
                raise rank_error(len(pivots), f, len(cands))
            mod.blocks.append(f)
            mod.block_dim[f] = target_rank
            mod.gram[f] = [[g[a][b] for b in pivots] for a in pivots]
            for k, c in enumerate(pivots):
                mod.parent[(f, k)] = cands[c]
            mod.dim += target_rank

            # g = g[:, pivots] rref[:r] and gram[f] = g[pivots, pivots] is
            # nonsingular, so column c of the rref is candidate c expanded
            # over the chosen ones: these columns are the F blocks into f.
            # E_i (F_j b') is column b' of M_ij: the E blocks out of f, which
            # are m[i] as it is when every candidate is chosen
            at = 0
            for i, src in srcs:
                k = mod.block_dim[src]
                mod.f_block[(i, src)] = linalg.lowest([r[at:at + k] for r in red], den)
                nums, q = m[i]
                mod.e_block[(i, f)] = (m[i] if len(pivots) == len(cands) else
                                       linalg.lowest([[r[c] for c in pivots] for r in nums], q))
                at += k

    dim = weyl_dimension(lam)
    if mod.dim != dim:
        raise InvariantError(f"realized dimension {mod.dim} of L({lam}) != Weyl formula {dim}")
    return mod


class IntertwinerMap:
    """Exact intertwiner T: L(lam) (x) L(mu) -> L(nu).

    Tensor vectors are dicts keyed by (f1, f2, a, b): weight blocks of the
    two factors plus indices inside them. T is stored column-wise per pair
    basis vector.
    """

    def __init__(self, mlam: ModuleRealization, mmu: ModuleRealization,
                 mnu: ModuleRealization, columns: dict):
        self.mlam = mlam
        self.mmu = mmu
        self.mnu = mnu
        self.columns = columns  # (f1, f2, a, b) -> {(fnu, k): coeff}

    def apply_pair(self, f1, a, f2, b) -> dict:
        return self.columns.get((f1, f2, a, b), {})


def _pair_basis(mlam: ModuleRealization, mmu: ModuleRealization, kappa) -> list:
    """Pair basis vectors (f1, f2, a, b) with f1 + f2 = kappa (fund coords)."""
    basis = []
    for f1 in mlam.blocks:
        f2 = tuple(k - x for k, x in zip(kappa, f1))
        if f2 in mmu.block_dim:
            basis.extend((f1, f2, a, b) for a in range(mlam.block_dim[f1])
                         for b in range(mmu.block_dim[f2]))
    return basis


def _tensor_action(mlam: ModuleRealization, mmu: ModuleRealization, kind: str,
                  i: int, vec: dict) -> dict:
    """(X (x) 1 + 1 (x) X) vec for X = E_i (kind "E") or F_i (kind "F").

    vec is a sparse tensor vector {(f1, f2, a, b): coeff}; the image comes
    back in the same form, without zero entries.
    """
    sign = 1 if kind == "E" else -1
    step = [sign * x for x in build_root_system(mlam.algebra).cartan_matrix[i]]
    blocks = [m.e_block if kind == "E" else m.f_block for m in (mlam, mmu)]
    out: dict = {}
    for (f1, f2, a, b), c in vec.items():
        for side, f, col in ((0, f1, a), (1, f2, b)):
            if (i, f) in blocks[side]:
                nums, den = blocks[side][(i, f)]
                g = tuple(x + s for x, s in zip(f, step))
                for r, row in enumerate(nums):
                    if row[col]:
                        key = (g, f2, r, b) if side == 0 else (f1, g, a, r)
                        out[key] = out.get(key, ZERO) + Fraction(c * row[col], den)
    return {key: v for key, v in out.items() if v}


def highest_weight_vectors(mlam: ModuleRealization, mmu: ModuleRealization,
                           nu: Weight) -> list[dict]:
    """Vectors of weight nu in the tensor product killed by all raisings."""
    basis = _pair_basis(mlam, mmu, nu.fundamental)
    if not basis:
        return []
    # one row per raised pair basis vector, over the columns of basis
    rows: dict = {}
    for col, key in enumerate(basis):
        for i in range(mlam.algebra.rank):
            for up_key, x in _tensor_action(mlam, mmu, "E", i, {key: ONE}).items():
                rows.setdefault(up_key, {})[col] = x
    dense = [[row.get(c, ZERO) for c in range(len(basis))] for row in rows.values()]
    sols = linalg.nullspace(dense or [[ZERO] * len(basis)])
    return [
        {basis[t]: v[t] for t in range(len(basis)) if v[t]} for v in sols
    ]


def hom_space_basis(lam: Weight, mu: Weight, nu: Weight) -> list[IntertwinerMap]:
    """Basis of the intertwiner space L(lam) (x) L(mu) -> L(nu)."""
    mlam = realize_module(lam)
    mmu = realize_module(mu)
    mnu = realize_module(nu)
    cartan = build_root_system(lam.algebra).cartan_matrix

    out = []
    gram_inv: dict = {}  # f -> inverse of mnu.gram[f], shared by every w
    for w in highest_weight_vectors(mlam, mmu, nu):
        # S: L(nu) -> L(lam) (x) L(mu), S(top) = w, extended by lowerings
        svecs = {(nu.fundamental, 0): w}
        for f in mnu.blocks:
            for k in range(mnu.block_dim[f]):
                if (f, k) not in svecs:
                    j, b = mnu.parent[(f, k)]
                    src = tuple(x + y for x, y in zip(f, cartan[j]))
                    svecs[(f, k)] = _tensor_action(mlam, mmu, "F", j, svecs[(src, b)])

        # T = adjoint of S w.r.t. the contravariant forms, blockwise:
        # rhs[(f1, f2, a, b)][k] = <S v_k, e_a (x) e_b>, summed from the Gram
        # rows, then T e_a (x) e_b = G_f^-1 rhs
        columns: dict = {}
        for f in mnu.blocks:
            r = mnu.block_dim[f]
            rhs: dict = {}
            for k in range(r):
                for (f1, f2, c, d), coef in svecs[(f, k)].items():
                    row2 = mmu.gram[f2][d]
                    for a, x in enumerate(mlam.gram[f1][c]):
                        if x:
                            x *= coef
                            for b, y in enumerate(row2):
                                if y:
                                    v = rhs.setdefault((f1, f2, a, b), [ZERO] * r)
                                    v[k] += x * y
            if not rhs:
                continue
            if f not in gram_inv:
                gram_inv[f] = linalg.inverse(mnu.gram[f])
            ginv, den = gram_inv[f]
            for key, v in rhs.items():
                col = {(f, k): Fraction(sum(map(mul, ginv[k], v)), den) for k in range(r)}
                col = {k2: x for k2, x in col.items() if x}
                if col:
                    columns[key] = col
        out.append(IntertwinerMap(mlam, mmu, mnu, columns))
    return out
