"""Exact structure-constant realizations of the simply-laced algebras.

Basis: simple coroots ('h', i) plus one root vector ('x', root) per root,
with all structure constants fixed by the bimultiplicative sign cocycle on
the root lattice (the same sign engine as the lattice module). Root vectors
have unit norm, the star swaps x_a with a signed x_(-a), and the invariant
inner product is normalized so long roots have squared length 2.

The signs are read from per-root integer tables built once per algebra (the
negative, the Cartan pairings and two parity masks of each root; see
`StructureAlgebra`), so `bracket` and `star` build no tuple but the sum of
two roots and keep no table over pairs. Coefficients are ints: `x` hands
out 1, and brackets, stars, sums and the Lie closures below stay in
int arithmetic. A Fraction appears only where something divides: an
eigenvalue (`_eigenvalue`), a normalized coroot (`coroot_normalized`), the
embedding index (`dynkin_index`), and the restricted weights that
`branch` builds from the normalized coroots.

The second half constructs unitary subalgebras from explicit generators and
culminates in the rank-8 tower: the two exceptional commuting subalgebras
generated by Dynkin's raising elements, their recovered Cartan matrices,
index computation, and branching of ambient modules. The tower's builder
records the signs it chose; whether the pair it built is right is judged
once, by the verification suite.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from . import linalg
from .errors import InvariantError, VerificationError
from .highmod import (
    DominantCharacter, all_weights, hom_space_basis, realize_module, weyl_dimension,
)
from .lattice import sign_cocycle_exponent
from .rootsys import AlgebraId, Weight, build_root_system

ZERO = Fraction(0)
ONE = Fraction(1)

Element = dict  # ('h', i) | ('x', root tuple) -> rational (Fraction or int)

SIMPLY_LACED = {"A", "D", "E"}


def _bits(flags) -> int:
    """The int with bit i set where the i-th flag is true."""
    return sum(1 << i for i, f in enumerate(flags) if f)


class StructureAlgebra:
    """A simply-laced simple Lie algebra with exact structure constants.

    The cocycle sign is read from per-root integer tables built once: for
    each root r its negative, its Cartan pairings <r, alpha_i^vee>, the
    parity mask of its coordinates, and the parity mask of the exponents
    `sign_cocycle_exponent(e_i, r)` against the unit vectors e_i. The
    exponent is bilinear, so eps(a, b) is the parity of the bits that the
    mask of a and the unit-vector mask of b share; no table over pairs is
    kept.
    """

    def __init__(self, algebra: AlgebraId):
        if algebra.series not in SIMPLY_LACED:
            raise ValueError(f"{algebra} is not simply laced")
        self.algebra = algebra
        rs = build_root_system(algebra)
        self.rank = n = algebra.rank
        self.cartan = cartan = rs.cartan_matrix
        self.roots = rs.root_coord_set
        self.dim = self.rank + len(self.roots)
        units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        self._neg = {r: tuple(-c for c in r) for r in self.roots}
        cols = list(zip(*cartan))
        self._pairings = {r: tuple(sum(map(mul, r, col)) for col in cols) for r in self.roots}
        self._mask = {r: _bits(c % 2 for c in r) for r in self.roots}
        self._odd = {
            r: _bits(sign_cocycle_exponent(cartan, e, r) % 2 for e in units)
            for r in self.roots
        }

    # -- basic constructors -------------------------------------------------
    def x(self, root) -> Element:
        root = tuple(int(c) for c in root)
        if root not in self.roots:
            raise ValueError(f"{root} is not a root of {self.algebra}")
        return {("x", root): 1}

    def basis_labels(self) -> list:
        return [("h", i) for i in range(self.rank)] + [
            ("x", r) for r in sorted(self.roots)
        ]

    # -- structure constants -------------------------------------------------
    def eps(self, a, b) -> int:
        """The cocycle sign of two roots: (-1)^sign_cocycle_exponent(a, b)."""
        return -1 if (self._mask[a] & self._odd[b]).bit_count() & 1 else 1

    def bracket(self, u: Element, v: Element) -> Element:
        out: Element = {}
        pairings, roots = self._pairings, self.roots

        def put(lbl, c):
            if c:
                c += out.get(lbl, 0)
                if c:
                    out[lbl] = c
                else:
                    del out[lbl]

        for la, ca in u.items():
            ka, a = la  # a root, or the index of a simple coroot
            for lb, cb in v.items():
                kb, b = lb
                if ka == "h":
                    if kb == "x":
                        put(lb, ca * cb * pairings[b][a])
                elif kb == "h":
                    put(la, -ca * cb * pairings[a][b])
                else:
                    s = tuple(map(add, a, b))
                    if s in roots:
                        put(("x", s), ca * cb * self.eps(a, b))
                    elif not any(s):
                        c = ca * cb * self.eps(a, b)
                        for i, ai in enumerate(a):
                            if ai:
                                put(("h", i), c * ai)
        return out

    def star(self, u: Element) -> Element:
        out: Element = {}
        for lbl, c in u.items():
            if lbl[0] == "h":
                out[lbl] = out.get(lbl, 0) + c
            else:
                r = lbl[1]
                nr = self._neg[r]
                out[("x", nr)] = out.get(("x", nr), 0) + c * self.eps(r, nr)
        return out

    def inner(self, u: Element, v: Element) -> int | Fraction:
        """Normalized invariant inner product (real rational elements)."""
        tot = 0
        for lbl, c in u.items():
            if lbl[0] == "x":
                c2 = v.get(lbl)
                if c2:
                    tot += c * c2
            else:
                for j in range(self.rank):
                    c2 = v.get(("h", j))
                    if c2:
                        tot += c * c2 * self.cartan[lbl[1]][j]
        return tot

    # -- random structure checks --------------------------------------------
    def check_jacobi(self, samples: int, rng: random.Random) -> bool:
        labels = self.basis_labels()
        for _ in range(samples):
            a, b, c = ({lbl: 1} for lbl in rng.choices(labels, k=3))
            lhs = self.bracket(a, self.bracket(b, c))
            mid = self.bracket(b, self.bracket(a, c))
            rhs = self.bracket(self.bracket(a, b), c)
            total = dict(rhs)
            for lbl, cc in mid.items():
                total[lbl] = total.get(lbl, 0) + cc
            for lbl, cc in lhs.items():
                total[lbl] = total.get(lbl, 0) - cc
            if any(total.values()):
                return False
        return True

    def check_invariance(self, samples: int, rng: random.Random) -> bool:
        """([X,Y]|Z) = (Y|[X*,Z]) on random basis triples."""
        labels = self.basis_labels()
        for _ in range(samples):
            x, y, z = ({lbl: 1} for lbl in rng.choices(labels, k=3))
            lhs = self.inner(self.bracket(x, y), z)
            rhs = self.inner(y, self.bracket(self.star(x), z))
            if lhs != rhs:
                return False
        return True


@lru_cache(maxsize=None)
def build_simply_laced(algebra: AlgebraId) -> StructureAlgebra:
    return StructureAlgebra(algebra)


def nested_bracket(alg: StructureAlgebra, word) -> Element:
    """[g_{w1}, [g_{w2}, ... [g_{w_{n-1}}, g_{w_n}]]] of simple raisings.

    Indices are 1-based simple-root indices of the ambient algebra. The
    result may be zero.
    """
    gens = []
    for i in word:
        if not 1 <= i <= alg.rank:
            raise ValueError(f"index {i} out of range for {alg.algebra}")
        gens.append(alg.x(tuple(1 if k == i - 1 else 0 for k in range(alg.rank))))
    cur = gens[-1]
    for g in reversed(gens[:-1]):
        cur = alg.bracket(g, cur)
    return cur


# ---------------------------------------------------------------------------
# unitary subalgebras from generators


def unitary_closure(alg: StructureAlgebra, gens) -> list[Element]:
    """Basis of the Lie span closure of the generators and their stars."""
    seeds = [e for g in gens for e in (g, alg.star(g))]
    _, ech = linalg.closure(
        seeds, lambda a, kept: (alg.bracket(a, b) for b in kept), dict)
    return ech.basis()


@dataclass
class EmbeddedSubalgebra:
    """A unitary subalgebra generated by explicit raising elements."""

    ambient: StructureAlgebra
    generators: list
    span_basis: list = field(default_factory=list)
    cartan_images: list = field(default_factory=list)
    eigen_matrix: list = field(default_factory=list)

    @classmethod
    def generate(cls, alg: StructureAlgebra, gens) -> "EmbeddedSubalgebra":
        sub = cls(alg, list(gens))
        sub.span_basis = unitary_closure(alg, gens)
        sub.cartan_images = [alg.bracket(g, alg.star(g)) for g in gens]
        sub.eigen_matrix = [[_eigenvalue(alg, h, g) for g in gens] for h in sub.cartan_images]
        return sub

    @property
    def dim(self) -> int:
        return len(self.span_basis)

    def recovered_cartan(self) -> list[list[int]]:
        """Cartan matrix with entry [i][j] = <beta_i, beta_j^vee>."""
        m = self.eigen_matrix
        n = len(m)
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                val = 2 * m[j][i] / m[j][j]
                if val.denominator != 1:
                    raise InvariantError(
                        f"non-integral recovered Cartan entry {val} at ({i}, {j})"
                    )
                out[i][j] = int(val)
        return out

    def coroot_normalized(self, i: int) -> Element:
        """H_{beta_i}, scaled so its eigenvalue on generator i is 2."""
        scale = 2 / self.eigen_matrix[i][i]
        return {lbl: scale * c for lbl, c in self.cartan_images[i].items()}


def _eigenvalue(alg: StructureAlgebra, h: Element, v: Element) -> Fraction:
    w = alg.bracket(h, v)
    if not w:
        return ZERO
    lbl = next(iter(v))
    lam = Fraction(w.get(lbl, 0), v[lbl])
    chk = {l2: c * lam for l2, c in v.items() if c * lam}
    if chk != w:
        raise VerificationError(f"{v} is not an eigenvector of {h}")
    return lam


def dynkin_index(sub: EmbeddedSubalgebra) -> int:
    """Ambient form restricted to the subalgebra over its own normalized form."""
    m = sub.eigen_matrix
    n = len(m)
    # symmetrize the recovered Cartan matrix to find a long simple root
    a = sub.recovered_cartan()
    d = [None] * n
    d[0] = ONE
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if a[i][j] and d[i] is not None and d[j] is None:
                    # a_ji / a_ij = (beta_j|beta_j) / (beta_i|beta_i)
                    d[j] = d[i] * Fraction(a[j][i], a[i][j])
                    changed = True
    if None in d:
        raise ValueError(f"recovered Cartan matrix {a} has a disconnected Dynkin "
                         "diagram: the index is defined for a simple subalgebra")
    longest = max(range(n), key=lambda i: d[i])
    h_norm = sub.coroot_normalized(longest)
    val = sub.ambient.inner(h_norm, h_norm) / 2
    if val.denominator != 1:
        raise VerificationError(f"non-integer embedding index {val}")
    return int(val)


def branch(sub: EmbeddedSubalgebra, sub_type: AlgebraId,
           module: DominantCharacter | str = "adjoint") -> dict:
    """Decompose an ambient module over the subalgebra.

    Weights are restricted through the normalized coroot images and the
    resulting multiset is peeled greedily from the highest weight using the
    subalgebra's own characters. Returns sub-dominant fundamental tuples ->
    multiplicities. A module of another algebra than the ambient one raises
    ValueError. A residue that cannot be peeled, or a total dimension that
    is not conserved, raises VerificationError.
    """
    amb = sub.ambient
    weights: dict = {}
    hs = [sub.coroot_normalized(i) for i in range(len(sub.generators))]

    def addw(fund, m=1):
        # restrict an ambient weight, given by its fundamental coordinates,
        # through the normalized coroot images
        w = tuple(
            sum((c * fund[lbl[1]] for lbl, c in h.items() if lbl[0] == "h"), ZERO)
            for h in hs
        )
        weights[w] = weights.get(w, 0) + m

    if module == "adjoint":
        addw([0] * amb.rank, amb.rank)
        for r in amb.roots:
            addw(amb._pairings[r])  # a root's fundamental coordinates
        total = amb.dim
    else:
        if module.highest_weight.algebra != amb.algebra:
            raise ValueError(f"a {module.highest_weight.algebra} module is not a "
                             f"module of the ambient {amb.algebra}")
        total = 0
        for fund, m in all_weights(module.highest_weight).items():
            addw(fund, m)
            total += m

    # det(C) times the height of a weight: the adjugate row sums are det
    # times the heights of the fundamental weights, and det > 0, so the
    # order is that of the heights, which is dominance-compatible
    heights = [sum(row) for row in build_root_system(sub_type).cartan_adjugate]

    def root_height(w):
        return sum(map(mul, w, heights))

    out: dict = {}
    remaining = dict(weights)
    while any(remaining.values()):
        dominant = [
            w for w, m in remaining.items() if m > 0 and all(x >= 0 for x in w)
        ]
        if not dominant:
            raise VerificationError(f"branching left a non-dominant residue: {remaining}")
        top = max(dominant, key=lambda w: (root_height(w), w))
        mult = remaining[top]
        hw = Weight.from_fundamental(sub_type, top)
        out[hw.fundamental] = out.get(hw.fundamental, 0) + mult
        for fund, m in all_weights(hw).items():
            remaining[fund] = remaining.get(fund, 0) - mult * m
            if remaining[fund] < 0:
                raise VerificationError(f"negative residue at {fund} while peeling {top}")
            if remaining[fund] == 0:
                del remaining[fund]

    check = sum(
        m * weyl_dimension(Weight.from_fundamental(sub_type, f)) for f, m in out.items()
    )
    if check != total:
        raise VerificationError(f"branching lost dimensions: {check} != {total}")
    return out


# ---------------------------------------------------------------------------
# the rank-8 tower: two commuting exceptional subalgebras inside e8

E8 = AlgebraId("E", 8)
G2 = AlgebraId("G", 2)

# node dictionary of the construction: generator labels 1..8 as in the
# classical table, mapped onto the Bourbaki numbering of e8
NODE_TO_BOURBAKI = {1: 8, 2: 7, 3: 5, 4: 6, 5: 4, 6: 1, 7: 3, 8: 2}

# the three raising words (construction-label digits, outermost first)
# whose signed sum spans the short-root space of the commutant
SHORT_ROOT_WORDS = (
    (2, 4, 7, 5, 3, 6, 7, 5, 8),
    (2, 3, 4, 5, 3, 6, 7, 5, 8),
    (4, 2, 3, 4, 5, 3, 7, 5, 8),
)


def _translate(word) -> tuple:
    return tuple(NODE_TO_BOURBAKI[i] for i in word)


def dynkin_raising(alg: StructureAlgebra, i: int) -> Element:
    """P_i: the unit raising generator in the construction numbering."""
    b = NODE_TO_BOURBAKI[i] - 1
    return alg.x(tuple(1 if k == b else 0 for k in range(8)))


def construction_bracket(alg: StructureAlgebra, word) -> Element:
    """Nested bracket P_{word} with construction-numbering indices."""
    return nested_bracket(alg, _translate(word))


@dataclass
class ExceptionalPair:
    ambient: StructureAlgebra
    g2: EmbeddedSubalgebra
    f4: EmbeddedSubalgebra
    signs: tuple


@lru_cache(maxsize=1)
def dynkin_embedding_g2_f4() -> ExceptionalPair:
    """Construct the commuting g2 + f4 pair inside e8.

    The f4 side is generated by {P3+P7, P4+P6, P5, P8}; the g2 side by P1
    and a signed three-term combination of nested brackets. The signs are
    convention-dependent, so the four assignments on the second and third
    summands are searched first (then all eight) for the one that commutes
    with the f4 generators; the chosen signs are kept as ``signs``.
    The builder judges nothing else: the dimensions, recovered Cartan
    matrices, commutation and joint span are claims of
    `verify.check_exceptional_pair`.
    """
    alg = build_simply_laced(E8)
    P = {i: dynkin_raising(alg, i) for i in range(1, 9)}
    b_gens = [
        _add(P[3], P[7]),
        _add(P[4], P[6]),
        P[5],
        P[8],
    ]
    terms = [construction_bracket(alg, w) for w in SHORT_ROOT_WORDS]
    if any(not t for t in terms):
        raise VerificationError("a raising word evaluated to zero")

    def commutes(a1):
        for b in b_gens:
            if alg.bracket(a1, b) or alg.bracket(a1, alg.star(b)):
                return False
        return True

    sign_sets = [(1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)]
    sign_sets += [(-1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)]
    chosen = None
    for signs in sign_sets:
        a1 = {}
        for s, t in zip(signs, terms):
            for lbl, c in t.items():
                a1[lbl] = a1.get(lbl, 0) + s * c
        if commutes(a1):
            chosen = (signs, a1)
            break
    if chosen is None:
        raise VerificationError(
            "no sign assignment on the raising-word summands commutes with "
            "the partner subalgebra")
    signs, a1 = chosen
    g2 = EmbeddedSubalgebra.generate(alg, [a1, P[1]])
    f4 = EmbeddedSubalgebra.generate(alg, b_gens)
    return ExceptionalPair(alg, g2, f4, signs)


def _add(u: Element, v: Element, sv: int = 1) -> Element:
    out = dict(u)
    for lbl, c in v.items():
        out[lbl] = out.get(lbl, 0) + sv * c
        if not out[lbl]:
            del out[lbl]
    return out


def orthogonal_complement_witness() -> dict:
    """Concrete bracket witness inside the orthogonal complement.

    Returns X = P2, Y = P4 - P6 and Z = [X, Y] = P24 - P26 together with
    the exact pairing (Z|Z); all three are checked to be orthogonal to the
    commuting pair.
    """
    pair = dynkin_embedding_g2_f4()
    alg = pair.ambient
    x = dynkin_raising(alg, 2)
    y = _add(dynkin_raising(alg, 4), dynkin_raising(alg, 6), -1)
    z = _add(construction_bracket(alg, (2, 4)), construction_bracket(alg, (2, 6)), -1)
    if alg.bracket(x, y) != z:
        raise VerificationError("bracket identity [P2, P4 - P6] = P24 - P26 failed")
    basis = pair.g2.span_basis + pair.f4.span_basis
    for name, v in (("X", x), ("Y", y), ("Z", z)):
        bad = [b for b in basis if alg.inner(v, b) or alg.inner(v, alg.star(b))]
        if bad:
            raise VerificationError(f"{name} is not orthogonal to the pair")
    norm = alg.inner(z, z)
    if norm == 0:
        raise VerificationError("witness bracket has vanishing pairing")
    return {"X": x, "Y": y, "Z": z, "pairing": norm}


# ---------------------------------------------------------------------------
# classical folded embeddings (used for index and branching facts)


def _theta_root(m: int, tvec) -> tuple:
    """Exact simple-root coordinates of a D_m weight given in theta coordinates."""
    rows = []
    for i in range(m - 1):
        e = [0] * m
        e[i], e[i + 1] = 1, -1
        rows.append(e)
    last = [0] * m
    last[m - 2] = last[m - 1] = 1
    rows.append(last)
    x, d = linalg.solve(linalg.transpose(rows), tvec)
    return tuple(Fraction(v, d) for v in x)


def embed_so_odd(n: int) -> tuple[StructureAlgebra, EmbeddedSubalgebra]:
    """so_{2n+1} inside so_{2n+2}: fold the last two nodes."""
    alg = build_simply_laced(AlgebraId("D", n + 1))
    gens = [alg.x(tuple(1 if k == i else 0 for k in range(n + 1))) for i in range(n - 1)]
    gens.append(_add(
        alg.x(tuple(1 if k == n - 1 else 0 for k in range(n + 1))),
        alg.x(tuple(1 if k == n else 0 for k in range(n + 1))),
    ))
    sub = EmbeddedSubalgebra.generate(alg, gens)
    if sub.dim != n * (2 * n + 1):
        raise VerificationError(f"so_{2*n+1} closure has dim {sub.dim}")
    return alg, sub


def embed_sp(n: int) -> tuple[StructureAlgebra, EmbeddedSubalgebra]:
    """sp_{2n} inside so_{4n} via the standard-plus-dual block embedding."""
    alg = build_simply_laced(AlgebraId("D", 2 * n))
    m = 2 * n

    def theta(*pairs):
        t = [0] * m
        for idx, c in pairs:
            t[idx] = c
        return alg.x(tuple(int(c) for c in _theta_root(m, t)))

    target = n * (2 * n + 1)
    for signs in itertools.product((1, -1), repeat=n - 1):
        gens = []
        for i in range(n - 1):
            a = theta((i, 1), (i + 1, -1))
            b = theta((n + i + 1, 1), (n + i, -1))
            gens.append(_add(a, b, signs[i]))
        gens.append(theta((n - 1, 1), (2 * n - 1, -1)))
        try:
            sub = EmbeddedSubalgebra.generate(alg, gens)
        except VerificationError:
            continue
        if sub.dim == target:
            return alg, sub
    raise VerificationError(f"no sign assignment closes sp_{2*n} at dim {target}")


# ---------------------------------------------------------------------------
# exact pairing witnesses inside small realized modules


def _folded(pairs) -> list:
    """The integer numerators of the (numerators, den) pairs, the last two
    summed into one over their common den.

    Scaling an operator changes no span closure, so a den can be dropped;
    the two merged nodes are summed as rationals, over the lcm of their dens.
    """
    (a, da), (b, db) = pairs[-2:]
    d = math.lcm(da, db)
    fold = [[x * (d // da) + y * (d // db) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
    return [nums for nums, _ in pairs[:-2]] + [fold]


def _span_closure(ops, seed_vecs) -> linalg.Echelon:
    """Echelon basis of the span of seed_vecs closed under the matrices ops."""
    _, ech = linalg.closure(
        seed_vecs, lambda v, _: ([sum(map(mul, row, v)) for row in op] for op in ops),
        lambda v: dict(enumerate(v)))
    return ech


def zero_weight_split_witness(n: int) -> dict:
    """The middle vector of the odd orthogonal standard module.

    Restrict the (2n+2)-dim module to the folded so_{2n+1}: its weight-0
    line must split across the two extremal weight blocks of the ambient
    weight decomposition, with both components nonzero. Also checks that
    the +-theta_i blocks are swallowed whole.
    """
    aid = AlgebraId("D", n + 1)
    lam = Weight.from_fundamental(aid, [1] + [0] * n)
    mod = realize_module(lam)
    # folded operators: last two nodes merge
    ops = [_folded([mod.full_matrix(kind, i) for i in range(n + 1)]) for kind in "EF"]
    seed = [1] + [0] * (mod.dim - 1)  # highest vector, weight theta_1
    span = _span_closure(ops[0] + ops[1], [seed])
    dim = len(span.rows)
    if dim != 2 * n + 1:
        raise VerificationError(f"folded submodule has dim {dim}")

    offsets = mod._offsets()
    # the two blocks restricting to zero under the first n coroots
    zero_blocks = [
        f for f in mod.block_dim
        if all(f[i] == 0 for i in range(n - 1)) and f[n - 1] == -f[n]
    ]
    if len(zero_blocks) != 2:
        raise VerificationError(f"expected 2 ambient blocks over weight 0: {zero_blocks}")

    # the submodule vector of restricted weight zero
    zero_vecs = []
    for v in span.basis():
        support = {
            f for f, k in mod.block_dim.items()
            if any(offsets[f] + b in v for b in range(k))
        }
        if support and support <= set(zero_blocks):
            zero_vecs.append((v, support))
    if len(zero_vecs) != 1:
        raise VerificationError(f"expected one zero-weight line, got {len(zero_vecs)}")
    v, support = zero_vecs[0]
    split = support == set(zero_blocks)
    # part (a): nonzero-weight blocks are swallowed whole
    whole = True
    for f in mod.block_dim:
        if f in zero_blocks:
            continue
        if span.reduce({offsets[f]: 1}):
            whole = False
    return {
        "submodule_dim": dim,
        "components_both_nonzero": split,
        "nonzero_blocks_match": whole,
    }


def g2_seven_dim_pairing_witness() -> dict:
    """T(u1 (x) u2) for the 7-dim module: u1 of weight -alpha_1, u2 highest."""
    v1 = Weight.from_fundamental(G2, [1, 0])
    ts = hom_space_basis(v1, v1, v1)
    if len(ts) != 1:
        raise VerificationError(f"expected a 1-dim intertwiner space, got {len(ts)}")
    t = ts[0]
    minus_alpha1 = (-2, 1)
    top = v1.fundamental
    img = t.apply_pair(minus_alpha1, 0, top, 0)
    return {"nonzero": bool(img), "image_support": sorted(img)}


def spin_chain_pairing_witness() -> dict:
    """Vector-times-half-spin pairings through the rank-4 even algebra.

    For k = 1, 2: T_k maps standard (x) spin to the other spin; pair
    T_k(e_k (x) w_{k-1}) against w_k, where e_k is the standard-module
    vector of weight -theta_{3+k} (k=1) or -theta_3 (k=2), w_0, w_1 are
    the two spin highest vectors and w_2 has weight (++--)/2.
    """
    aid = AlgebraId("D", 4)
    half = Fraction(1, 2)
    vec = Weight.from_fundamental(aid, [1, 0, 0, 0])

    def theta_weight(*coeffs):
        return Weight.from_root_coords(aid, _theta_root(4, coeffs))

    sp_plus = Weight.from_fundamental(aid, [0, 0, 1, 0])
    sp_minus = Weight.from_fundamental(aid, [0, 0, 0, 1])
    # identify which fundamental is which sign class: + has all-plus weight
    all_plus = theta_weight(half, half, half, half)
    if all_plus.fundamental != sp_plus.fundamental:
        sp_plus, sp_minus = sp_minus, sp_plus

    out = {}
    for k in (1, 2):
        if k == 1:
            mu_w, nu_w = sp_plus, sp_minus
            charge_weight = theta_weight(0, 0, 0, -1)
            w_src = mu_w.fundamental  # highest vector of sp_plus
            w_tgt = nu_w.fundamental  # highest vector of sp_minus
        else:
            mu_w, nu_w = sp_minus, sp_plus
            charge_weight = theta_weight(0, 0, -1, 0)
            w_src = theta_weight(half, half, half, -half).fundamental
            w_tgt = theta_weight(half, half, -half, -half).fundamental
        ts = hom_space_basis(vec, mu_w, nu_w)
        if len(ts) != 1:
            raise VerificationError(f"expected 1-dim Hom at k={k}, got {len(ts)}")
        t = ts[0]
        img = t.apply_pair(charge_weight.fundamental, 0, w_src, 0)
        val = img.get((w_tgt, 0), ZERO)
        out[f"k={k}"] = {"pairing_nonzero": val != 0}
    return out
