"""Weight multiplicities, characters, and exact realizations of irreducibles.

Multiplicities come from the Freudenthal recursion over the dominant cone,
in integer arithmetic. Module realizations are built layer by layer from
the highest weight: the spanning vectors F_i(b) of each weight space are
filtered through the exact contravariant (Shapovalov-style) Gram matrix,
whose rank is cross-checked against the Freudenthal multiplicity. No
orthogonalization is performed; every weight block carries its exact
rational Gram matrix instead.

Per weight f the work is a few block products. For each pair of source
blocks src_i = f + alpha_i, src_j = f + alpha_j, the block
M_ij = F_j E_i + delta_ij <src_i, alpha_i^vee> is the matrix of E_i on the
candidates F_j b. The candidate Gram block is gram[src_i] M_ij, and the new
E-blocks out of f are columns of M_ij. The form on L(lam) is nondegenerate,
so the first rows of the rref of the candidate Gram already expand every
candidate over the pivot ones: those rows are the F-blocks into f.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import InvariantError
from .linalg import Matrix, rref
from .rootsys import AlgebraId, Weight, build_root_system, to_dominant

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_CAP = 512


class CapExceeded(Exception):
    """A module was larger than the configured dimension cap."""


def _cap() -> int:
    return int(os.environ.get("LIEFUSION_CAP", DEFAULT_CAP))


@lru_cache(maxsize=None)
def weyl_dimension(lam: Weight) -> int:
    """Weyl dimension formula, exact, in integer arithmetic.

    For alpha = sum_j a_j alpha_j, (lam+rho|alpha) = sum_j a_j (f_j+1)
    (alpha_j|alpha_j)/2 with f the fundamental coordinates of lam. Each
    factor is scaled by 6 so that s_j = 3 (alpha_j|alpha_j) is an integer;
    the scale cancels in the ratio.
    """
    rs = build_root_system(lam.algebra)
    n = lam.algebra.rank
    s = [int(3 * rs.gram[j][j]) for j in range(n)]
    f = lam.fundamental
    num = den = 1
    for alpha in rs.positive_roots:
        a = [int(c) for c in alpha.coords]
        num *= sum(a[j] * (f[j] + 1) * s[j] for j in range(n))
        den *= sum(a[j] * s[j] for j in range(n))
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Weyl dimension of L({lam}) is {Fraction(num, den)}, not an integer")
    return int(dim)


@dataclass(frozen=True)
class DominantCharacter:
    """Multiplicities of an irreducible over dominant weights."""

    highest_weight: Weight
    mults: dict  # fundamental-coordinate tuple -> positive int
    dim: int

    def multiplicity(self, mu: Weight) -> int:
        dom, _, _ = to_dominant(mu)
        return self.mults.get(dom.fundamental, 0)


@lru_cache(maxsize=None)
def dominant_character(lam: Weight) -> DominantCharacter:
    """Freudenthal multiplicities for every dominant weight of L(lam).

    The recursion runs in integer arithmetic: depths t = lam - mu are
    integer root-coordinate vectors and all inner products are carried at
    a fixed common denominator.
    """
    if not lam.is_dominant_integral():
        raise ValueError(f"{lam} is not dominant integral")
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    rho = rs.weyl_vector
    cartan = rs.cartan_matrix
    from .rootsys import _reduce_to_dominant

    # scaled gram: 6 * (.|.) is integral for every simple type
    sgram = [[int(6 * rs.gram[i][j]) for j in range(n)] for i in range(n)]
    lam_f = tuple(int(x) for x in lam.fundamental)
    # (lam|e_i) scaled: lam expressed against the root basis
    lam_ip = [
        int(sum(6 * lam.coords[k] * rs.gram[k][i] for k in range(n))) for i in range(n)
    ]

    # saturated diagram: BFS over integer depth vectors t (mu = lam - t),
    # keeping points whose dominant representative stays under lam
    start_t = tuple([0] * n)
    points = {start_t}
    frontier = [start_t]
    dominants = [(lam_f, start_t)]

    def fund_of(t):
        return tuple(
            lam_f[j] - sum(t[k] * cartan[k][j] for k in range(n)) for j in range(n)
        )

    adj, det = rs.cartan_adjugate, rs.cartan_det

    def below(dom_f) -> bool:
        # lam - dom in the positive root cone: its root coordinates, times
        # det, are the pairings of the difference with the adjugate columns
        diff = [lam_f[j] - dom_f[j] for j in range(n)]
        for i in range(n):
            c = sum(diff[k] * adj[k][i] for k in range(n))
            if c < 0 or c % det:
                return False
        return True

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

    # recursion by increasing depth
    dominants.sort(key=lambda ft: sum(ft[1]))
    mults: dict = {lam_f: 1}
    rho_ip = [
        int(sum(6 * rho.coords[k] * rs.gram[k][i] for k in range(n))) for i in range(n)
    ]
    # per positive root: integer root coords, (e_i|a) scaled, (a|a) scaled
    pos_data = []
    for a in rs.positive_roots:
        ac = [int(x) for x in a.coords]
        galpha = [sum(sgram[i][j] * ac[j] for j in range(n)) for i in range(n)]
        a_norm = sum(ac[i] * galpha[i] for i in range(n))
        a_lam = sum(lam.coords[i] * galpha[i] for i in range(n))
        pos_data.append((ac, galpha, a_norm, int(a_lam)))

    pos_data = [
        (
            tuple(sum(ac[i] * cartan[i][j] for i in range(n)) for j in range(n)),
            galpha,
            a_norm,
            a_lam,
        )
        for ac, galpha, a_norm, a_lam in pos_data
    ]

    for f, t in dominants[1:]:
        total = 0
        for af, galpha, a_norm, a_lam in pos_data:
            # (mu + k a | a) scaled = a_lam - (t|a)_s + k (a|a)_s
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

    from .rootsys import weyl_orbit

    dim = 0
    for f, m in mults.items():
        dim += m * len(weyl_orbit(Weight.from_fundamental(aid, f)))
    wd = weyl_dimension(lam)
    if dim != wd:
        raise InvariantError(f"character dimension {dim} of L({lam}) != Weyl formula {wd}")
    return DominantCharacter(lam, mults, dim)


def weight_multiplicity(lam: Weight, mu: Weight) -> int:
    """dim of the mu weight space of L(lam)."""
    lam._check(mu)
    diff = lam - mu
    if any(c.denominator != 1 for c in diff.coords):
        return 0
    return dominant_character(lam).multiplicity(mu)


def full_character(lam: Weight, cap: int | None = None) -> DominantCharacter:
    """Complete dominant multiplicity table, guarded by the dimension cap."""
    cap = _cap() if cap is None else cap
    dim = weyl_dimension(lam)
    if dim > cap:
        raise CapExceeded(f"dim L({lam}) = {dim} exceeds cap {cap}")
    return dominant_character(lam)


@lru_cache(maxsize=None)
def _all_weights_raw(lam: Weight) -> dict:
    from .rootsys import weyl_orbit

    char = dominant_character(lam)
    out = {}
    for f, m in char.mults.items():
        for g in weyl_orbit(Weight.from_fundamental(lam.algebra, f)):
            out[g] = m
    return out


def all_weights(lam: Weight, cap: int | None = None) -> dict:
    """fundamental-coordinate tuple -> multiplicity, over the full orbit."""
    full_character(lam, cap)  # cap guard
    return _all_weights_raw(lam)


class ModuleRealization:
    """Exact matrices of the Chevalley generators on a weight basis.

    Basis vectors are grouped into weight blocks. ``f_block[(i, f)]`` maps
    block f to block f - alpha_i; ``e_block[(i, f)]`` maps block f to block
    f + alpha_i; ``gram[f]`` is the exact contravariant Gram matrix of
    block f. ``parent[(f, k)]`` records which F_i(previous basis vector)
    the k-th basis vector of block f is.
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

    # -- block helpers ----------------------------------------------------
    def weight_of(self, f) -> Weight:
        return Weight.from_fundamental(self.algebra, f)

    def basis_weights(self) -> list[Weight]:
        out = []
        for f in self.blocks:
            out.extend([self.weight_of(f)] * self.block_dim[f])
        return out

    def _offsets(self) -> dict:
        off, at = {}, 0
        for f in self.blocks:
            off[f] = at
            at += self.block_dim[f]
        return off

    def full_matrix(self, kind: str, i: int) -> Matrix:
        """Dense dim x dim matrix of E_i, F_i or H_i."""
        off = self._offsets()
        m = linalg.zeros(self.dim, self.dim)
        if kind == "H":
            for f in self.blocks:
                for k in range(self.block_dim[f]):
                    m[off[f] + k][off[f] + k] = Fraction(f[i])
            return m
        blocks = self.e_block if kind == "E" else self.f_block
        rs = build_root_system(self.algebra)
        for (j, f), blk in blocks.items():
            if j != i:
                continue
            step = 1 if kind == "E" else -1
            tgt = tuple(
                f[k] + step * rs.cartan_matrix[i][k] for k in range(self.algebra.rank)
            )
            for col in range(self.block_dim[f]):
                for row in range(self.block_dim[tgt]):
                    m[off[tgt] + row][off[f] + col] = blk[row][col]
        return m

    def gram_full(self) -> Matrix:
        off = self._offsets()
        m = linalg.zeros(self.dim, self.dim)
        for f in self.blocks:
            g = self.gram[f]
            for a in range(self.block_dim[f]):
                for b in range(self.block_dim[f]):
                    m[off[f] + a][off[f] + b] = g[a][b]
        return m

    def to_json(self) -> str:
        """Basis weights plus sparse generator triples, rational strings."""
        off = self._offsets()
        entries = {"E": [], "F": []}
        rs = build_root_system(self.algebra)
        n = self.algebra.rank
        for kind, blocks in (("E", self.e_block), ("F", self.f_block)):
            step = 1 if kind == "E" else -1
            for (i, f), blk in blocks.items():
                tgt = tuple(f[k] + step * rs.cartan_matrix[i][k] for k in range(n))
                for col in range(self.block_dim[f]):
                    for row in range(self.block_dim[tgt]):
                        if blk[row][col]:
                            entries[kind].append(
                                [i, off[tgt] + row, off[f] + col, str(blk[row][col])]
                            )
        return json.dumps(
            {
                "algebra": str(self.algebra),
                "highest_weight": [str(c) for c in self.highest_weight.fundamental],
                "dim": self.dim,
                "basis_weights": [
                    [str(c) for c in w.fundamental] for w in self.basis_weights()
                ],
                "gram": [
                    [[str(x) for x in row] for row in self.gram[f]] for f in self.blocks
                ],
                "generators": entries,
            }
        )


@lru_cache(maxsize=None)
def realize_module(lam: Weight, cap: int | None = None) -> ModuleRealization:
    """Build L(lam) with exact generator matrices and Gram blocks."""
    cap = _cap() if cap is None else cap
    dim = weyl_dimension(lam)
    if dim > cap:
        raise CapExceeded(f"dim L({lam}) = {dim} exceeds cap {cap}")

    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix
    weights = all_weights(lam, cap)

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
    mod.gram[top] = [[ONE]]
    mod.dim = 1

    def up(f, i):
        return tuple(f[k] + cartan[i][k] for k in range(n))

    for d in sorted(by_depth):
        if d == 0:
            continue
        for f in sorted(by_depth[d]):
            # source blocks f + alpha_i; the candidates are F_i b over the
            # basis vectors b of each source, in source order
            srcs = [(i, up(f, i)) for i in range(n)]
            srcs = [(i, src) for i, src in srcs if src in mod.block_dim]
            cands = [(i, b) for i, src in srcs for b in range(mod.block_dim[src])]
            target_rank = weights[f]

            # m[i][j] = F_j E_i + delta_ij <src_i, a_i^vee>, the matrix of E_i
            # on the candidates F_j b'; by contravariance the candidate Gram
            # block is <F_i b, F_j b'> = (gram[src_i] m[i][j])[b][b']
            m = {}
            for i, src_i in srcs:
                row = m[i] = {}
                for j, src_j in srcs:
                    e = mod.e_block.get((i, src_j))
                    if e is None:
                        blk = linalg.zeros(mod.block_dim[src_i], mod.block_dim[src_j])
                    else:
                        blk = linalg.matmul(mod.f_block[(j, up(src_j, i))], e)
                    if i == j:
                        for b in range(len(blk)):
                            blk[b][b] += src_i[i]
                    row[j] = blk

            # the Gram matrix is symmetric: one product per source row for
            # the blocks on and right of the diagonal, mirrored below it
            g = [[] for _ in cands]
            at = 0
            for s, (i, src_i) in enumerate(srcs):
                right = [
                    [x for j, _ in srcs[s:] for x in m[i][j][b]]
                    for b in range(mod.block_dim[src_i])
                ]
                for b, grow in enumerate(linalg.matmul(mod.gram[src_i], right)):
                    g[at + b] = [g[c][at + b] for c in range(at)] + grow
                at += mod.block_dim[src_i]

            red, pivots = rref(g)
            if len(pivots) != target_rank:
                raise InvariantError(
                    f"Gram rank {len(pivots)} != Freudenthal multiplicity "
                    f"{target_rank} at weight {f} of L({lam}) "
                    f"({len(cands)} candidates)"
                )
            chosen = [cands[c] for c in pivots]
            mod.blocks.append(f)
            mod.block_dim[f] = target_rank
            mod.gram[f] = [[g[a][b] for b in pivots] for a in pivots]
            for k, cand in enumerate(chosen):
                mod.parent[(f, k)] = cand
            mod.dim += target_rank

            # g = g[:, pivots] red[:r] and gram[f] = g[pivots, pivots] is
            # nonsingular, so column c of red[:r] is candidate c expanded over
            # the chosen ones: these columns are the F blocks into f
            at = 0
            for i, src in srcs:
                k = mod.block_dim[src]
                mod.f_block[(i, src)] = [red[r][at:at + k] for r in range(target_rank)]
                at += k

            # E blocks out of f: E_i (F_j b') is column b' of m[i][j]
            for i, src in srcs:
                mod.e_block[(i, f)] = [
                    [m[i][j][r][b] for j, b in chosen]
                    for r in range(mod.block_dim[src])
                ]

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

    def apply(self, tensor_vec: dict) -> dict:
        out: dict = {}
        for key, c in tensor_vec.items():
            for k2, c2 in self.columns.get(key, {}).items():
                out[k2] = out.get(k2, ZERO) + c * c2
                if not out[k2]:
                    del out[k2]
        return out


def _tensor_pair_blocks(mlam: ModuleRealization, mmu: ModuleRealization, kappa):
    """Pairs (f1, f2) of weight blocks with f1 + f2 = kappa (fund coords)."""
    out = []
    mu_set = set(mmu.blocks)
    for f1 in mlam.blocks:
        f2 = tuple(k - x for k, x in zip(kappa, f1))
        if f2 in mu_set:
            out.append((f1, f2))
    return out


def _pair_basis(mlam, mmu, pairs):
    basis = []
    for f1, f2 in pairs:
        for a in range(mlam.block_dim[f1]):
            for b in range(mmu.block_dim[f2]):
                basis.append((f1, f2, a, b))
    return basis


def highest_weight_vectors(mlam: ModuleRealization, mmu: ModuleRealization,
                           nu: Weight) -> list[dict]:
    """Vectors of weight nu in the tensor product killed by all raisings."""
    aid = mlam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix
    kappa = nu.fundamental
    pairs = _tensor_pair_blocks(mlam, mmu, kappa)
    basis = _pair_basis(mlam, mmu, pairs)
    index = {key: t for t, key in enumerate(basis)}
    if not basis:
        return []

    rows = []
    for i in range(n):
        kappa_up = tuple(kappa[k] + cartan[i][k] for k in range(n))
        pairs_up = _tensor_pair_blocks(mlam, mmu, kappa_up)
        basis_up = _pair_basis(mlam, mmu, pairs_up)
        index_up = {key: t for t, key in enumerate(basis_up)}
        if not basis_up:
            continue
        mat = linalg.zeros(len(basis_up), len(basis))
        for (f1, f2, a, b), col in index.items():
            blk = mlam.e_block.get((i, f1))
            if blk is not None:
                f1u = tuple(f1[k] + cartan[i][k] for k in range(n))
                for r in range(mlam.block_dim[f1u]):
                    if blk[r][a]:
                        mat[index_up[(f1u, f2, r, b)]][col] += blk[r][a]
            blk = mmu.e_block.get((i, f2))
            if blk is not None:
                f2u = tuple(f2[k] + cartan[i][k] for k in range(n))
                for r in range(mmu.block_dim[f2u]):
                    if blk[r][b]:
                        mat[index_up[(f1, f2u, a, r)]][col] += blk[r][b]
        rows.extend(mat)
    if not rows:
        sols = [[ONE if t == s else ZERO for t in range(len(basis))]
                for s in range(len(basis))]
    else:
        sols = linalg.nullspace(rows)
    return [
        {basis[t]: v[t] for t in range(len(basis)) if v[t]} for v in sols
    ]


def hom_space_basis(lam: Weight, mu: Weight, nu: Weight,
                    cap: int | None = None) -> list[IntertwinerMap]:
    """Basis of the intertwiner space L(lam) (x) L(mu) -> L(nu)."""
    mlam = realize_module(lam, cap)
    mmu = realize_module(mu, cap)
    mnu = realize_module(nu, cap)
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix

    hws = highest_weight_vectors(mlam, mmu, nu)
    out = []
    for w in hws:
        # S: L(nu) -> L(lam) (x) L(mu), S(top) = w, extended by lowerings
        svecs: dict = {}
        top = nu.fundamental
        svecs[(top, 0)] = w
        for f in mnu.blocks:
            for k in range(mnu.block_dim[f]):
                if (f, k) in svecs:
                    continue
                j, b = mnu.parent[(f, k)]
                src = tuple(f[t] + cartan[j][t] for t in range(n))
                sv = svecs[(src, b)]
                # apply F_j (x) 1 + 1 (x) F_j
                img: dict = {}
                for (f1, f2, a, c2), coef in sv.items():
                    blk = mlam.f_block.get((j, f1))
                    if blk is not None:
                        f1d = tuple(f1[t] - cartan[j][t] for t in range(n))
                        for r in range(mlam.block_dim[f1d]):
                            if blk[r][a]:
                                key = (f1d, f2, r, c2)
                                img[key] = img.get(key, ZERO) + coef * blk[r][a]
                    blk = mmu.f_block.get((j, f2))
                    if blk is not None:
                        f2d = tuple(f2[t] - cartan[j][t] for t in range(n))
                        for r in range(mmu.block_dim[f2d]):
                            if blk[r][c2]:
                                key = (f1, f2d, a, r)
                                img[key] = img.get(key, ZERO) + coef * blk[r][c2]
                svecs[(f, k)] = {k2: v for k2, v in img.items() if v}

        # T = adjoint of S w.r.t. the contravariant forms, blockwise
        columns: dict = {}
        gram_inv_cache: dict = {}
        for f in mnu.blocks:
            r = mnu.block_dim[f]
            pairs = _tensor_pair_blocks(mlam, mmu, f)
            if not pairs:
                continue
            if f not in gram_inv_cache:
                gram_inv_cache[f] = linalg.inverse(mnu.gram[f])
            ginv = gram_inv_cache[f]
            for f1, f2 in pairs:
                g1, g2 = mlam.gram[f1], mmu.gram[f2]
                for a in range(mlam.block_dim[f1]):
                    for b in range(mmu.block_dim[f2]):
                        rhs = []
                        for k in range(r):
                            sv = svecs[(f, k)]
                            tot = ZERO
                            for (h1, h2, c, d), coef in sv.items():
                                if h1 == f1 and h2 == f2:
                                    tot += coef * g1[c][a] * g2[d][b]
                            rhs.append(tot)
                        col = {
                            (f, k): sum((ginv[k][t] * rhs[t] for t in range(r)), ZERO)
                            for k in range(r)
                        }
                        col = {k2: v for k2, v in col.items() if v}
                        if col:
                            columns[(f1, f2, a, b)] = col
        out.append(IntertwinerMap(mlam, mmu, mnu, columns))
    return out
