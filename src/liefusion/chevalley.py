"""Exact structure-constant realizations of the simply-laced algebras.

Basis: simple coroots ('h', i) plus one root vector ('x', root) per root,
with all structure constants fixed by the bimultiplicative sign cocycle on
the root lattice (the same sign engine as the lattice module). Root vectors
have unit norm, the star swaps x_a with a signed x_(-a), and the invariant
inner product is normalized so long roots have squared length 2.

The second half constructs unitary subalgebras from explicit generators and
culminates in the rank-8 tower: the two exceptional commuting subalgebras
generated by Dynkin's raising elements, their recovered Cartan matrices,
index computation, and branching of ambient modules.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import InvariantError, VerificationError
from .highmod import all_weights, DominantCharacter
from .lattice import sign_cocycle_exponent
from .rootsys import AlgebraId, Weight, build_root_system

ZERO = Fraction(0)
ONE = Fraction(1)

Element = dict  # ('h', i) | ('x', root tuple) -> Fraction

SIMPLY_LACED = {"A", "D", "E"}


def _label_key(lbl):
    if lbl[0] == "h":
        return (0, lbl[1], ())
    return (1, 0, lbl[1])


class StructureAlgebra:
    """A simply-laced simple Lie algebra with exact structure constants."""

    def __init__(self, algebra: AlgebraId):
        if algebra.series not in SIMPLY_LACED:
            raise ValueError(f"{algebra} is not simply laced")
        self.algebra = algebra
        rs = build_root_system(algebra)
        self.rank = algebra.rank
        self.cartan = rs.cartan_matrix
        pos = [tuple(int(c) for c in r.coords) for r in rs.positive_roots]
        self.roots = frozenset(pos) | frozenset(tuple(-c for c in r) for r in pos)
        self.positive_roots = sorted(pos)
        self.dim = self.rank + len(self.roots)

    # -- basic constructors -------------------------------------------------
    def h(self, i: int) -> Element:
        return {("h", i): ONE}

    def x(self, root) -> Element:
        root = tuple(int(c) for c in root)
        if root not in self.roots:
            raise ValueError(f"{root} is not a root of {self.algebra}")
        return {("x", root): ONE}

    def basis_labels(self) -> list:
        return [("h", i) for i in range(self.rank)] + [
            ("x", r) for r in sorted(self.roots)
        ]

    # -- structure constants -------------------------------------------------
    def eps(self, a, b) -> int:
        s = sign_cocycle_exponent(self.cartan, a, b)
        return -1 if s % 2 else 1

    def _pairing(self, root, i) -> int:
        return sum(root[k] * self.cartan[k][i] for k in range(self.rank))

    def bracket(self, u: Element, v: Element) -> Element:
        out: Element = {}

        def add(lbl, c):
            if c:
                out[lbl] = out.get(lbl, ZERO) + c
                if not out[lbl]:
                    del out[lbl]

        for la, ca in u.items():
            for lb, cb in v.items():
                c = ca * cb
                if la[0] == "h" and lb[0] == "h":
                    continue
                if la[0] == "h":
                    add(lb, c * self._pairing(lb[1], la[1]))
                elif lb[0] == "h":
                    add(la, -c * self._pairing(la[1], lb[1]))
                else:
                    ra, rb = la[1], lb[1]
                    s = tuple(x + y for x, y in zip(ra, rb))
                    if not any(s):
                        e = self.eps(ra, tuple(-x for x in ra))
                        for i in range(self.rank):
                            if ra[i]:
                                add(("h", i), c * e * ra[i])
                    elif s in self.roots:
                        add(("x", s), c * self.eps(ra, rb))
        return out

    def star(self, u: Element) -> Element:
        out: Element = {}
        for lbl, c in u.items():
            if lbl[0] == "h":
                out[lbl] = out.get(lbl, ZERO) + c
            else:
                r = lbl[1]
                nr = tuple(-x for x in r)
                out[("x", nr)] = out.get(("x", nr), ZERO) + c * self.eps(r, nr)
        return out

    def inner(self, u: Element, v: Element) -> Fraction:
        """Normalized invariant inner product (real rational elements)."""
        tot = ZERO
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
            a, b, c = ({lbl: ONE} for lbl in rng.choices(labels, k=3))
            lhs = self.bracket(a, self.bracket(b, c))
            mid = self.bracket(b, self.bracket(a, c))
            rhs = self.bracket(self.bracket(a, b), c)
            total = dict(rhs)
            for lbl, cc in mid.items():
                total[lbl] = total.get(lbl, ZERO) + cc
            for lbl, cc in lhs.items():
                total[lbl] = total.get(lbl, ZERO) - cc
            if any(total.values()):
                return False
        return True

    def check_invariance(self, samples: int, rng: random.Random) -> bool:
        """([X,Y]|Z) = (Y|[X*,Z]) on random basis triples."""
        labels = self.basis_labels()
        for _ in range(samples):
            x, y, z = ({lbl: ONE} for lbl in rng.choices(labels, k=3))
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


class _Echelon:
    def __init__(self):
        self.rows: list[tuple] = []

    def reduce(self, v: Element) -> Element:
        v = dict(v)
        for lead, b in self.rows:
            if lead in v:
                c = v[lead] / b[lead]
                for l2, c2 in b.items():
                    v[l2] = v.get(l2, ZERO) - c * c2
                    if not v[l2]:
                        del v[l2]
        return v

    def add(self, v: Element) -> bool:
        v = self.reduce(v)
        if v:
            self.rows.append((min(v, key=_label_key), v))
            return True
        return False

    def contains(self, v: Element) -> bool:
        return not self.reduce(v)

    def basis(self) -> list[Element]:
        return [b for _, b in self.rows]


def unitary_closure(alg: StructureAlgebra, gens) -> list[Element]:
    """Basis of the Lie span closure of the generators and their stars."""
    ech = _Echelon()
    live = []
    for g in gens:
        for e in (g, alg.star(g)):
            if ech.add(e):
                live.append(e)
    frontier = list(live)
    while frontier:
        new = []
        for a in frontier:
            for b in live:
                c = alg.bracket(a, b)
                if c and ech.add(c):
                    new.append(c)
        live.extend(new)
        frontier = new
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
        n = len(gens)
        m = linalg.zeros(n, n)
        for i in range(n):
            for j in range(n):
                m[i][j] = _eigenvalue(alg, sub.cartan_images[i], gens[j])
        sub.eigen_matrix = m
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

    def contains(self, v: Element) -> bool:
        ech = _Echelon()
        for b in self.span_basis:
            ech.add(b)
        return ech.contains(v)

    def coroot_normalized(self, i: int) -> Element:
        """H_{beta_i}, scaled so its eigenvalue on generator i is 2."""
        scale = 2 / self.eigen_matrix[i][i]
        return {lbl: scale * c for lbl, c in self.cartan_images[i].items()}

    def restrict_root_weight(self, root) -> tuple:
        """Fundamental coordinates of an ambient root under this subalgebra."""
        out = []
        for i in range(len(self.generators)):
            h = self.coroot_normalized(i)
            val = sum(
                (c * self.ambient._pairing(root, lbl[1])
                 for lbl, c in h.items() if lbl[0] == "h"),
                ZERO,
            )
            out.append(val)
        return tuple(out)


def _eigenvalue(alg: StructureAlgebra, h: Element, v: Element) -> Fraction:
    w = alg.bracket(h, v)
    if not w:
        return ZERO
    lbl = next(iter(v))
    lam = w.get(lbl, ZERO) / v[lbl]
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
    longest = max(range(n), key=lambda i: d[i])
    h_norm = sub.coroot_normalized(longest)
    val = sub.ambient.inner(h_norm, h_norm) / 2
    if val.denominator != 1:
        raise VerificationError(f"non-integer embedding index {val}")
    return int(val)


def branch(sub: EmbeddedSubalgebra, sub_type: AlgebraId,
           module: DominantCharacter | str = "adjoint",
           restrict=None) -> dict:
    """Decompose an ambient module over the subalgebra.

    Weights are restricted through the normalized coroot images and the
    resulting multiset is peeled greedily from the highest weight using the
    subalgebra's own characters. Returns sub-dominant fundamental tuples ->
    multiplicities; total dimension is conserved (asserted).
    """
    amb = sub.ambient
    weights: dict = {}

    def addw(w, m=1):
        weights[w] = weights.get(w, 0) + m

    if module == "adjoint":
        zero = tuple([ZERO] * len(sub.generators))
        addw(zero, amb.rank)
        for r in amb.roots:
            addw(sub.restrict_root_weight(r))
        total = amb.dim
    else:
        if restrict is None:
            hs = [sub.coroot_normalized(i) for i in range(len(sub.generators))]

            def restrict(fund):
                return tuple(
                    sum((c * fund[lbl[1]] for lbl, c in h.items() if lbl[0] == "h"),
                        ZERO)
                    for h in hs
                )

        total = 0
        for fund, m in all_weights(module.highest_weight).items():
            addw(restrict(fund), m)
            total += m

    rs = build_root_system(sub_type)
    inv = rs._cartan_inv
    nr = sub_type.rank

    def root_height(w):
        # fund -> root coords, then total height; dominance-compatible
        return sum(
            (w[k] * inv[k][i] for k in range(nr) for i in range(nr)), ZERO
        )

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
        out[tuple(top)] = out.get(tuple(top), 0) + mult
        for fund, m in all_weights(hw).items():
            remaining[fund] = remaining.get(fund, 0) - mult * m
            if remaining[fund] < 0:
                raise VerificationError(f"negative residue at {fund} while peeling {top}")
            if remaining[fund] == 0:
                del remaining[fund]
    from .highmod import weyl_dimension

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
F4 = AlgebraId("F", 4)

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

G2_CARTAN = [[2, -1], [-3, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def _translate(word) -> tuple:
    return tuple(NODE_TO_BOURBAKI[i] for i in word)


def dynkin_raising(alg: StructureAlgebra, i: int) -> Element:
    """P_i: the unit raising generator in the construction numbering."""
    b = NODE_TO_BOURBAKI[i] - 1
    return alg.x(tuple(1 if k == b else 0 for k in range(8)))


def construction_bracket(alg: StructureAlgebra, word) -> Element:
    """Nested bracket P_{word} with construction-numbering indices."""
    return nested_bracket(alg, _translate(word))


def _cartan_matches(mat, ref) -> bool:
    from itertools import permutations

    n = len(ref)
    if len(mat) != n:
        return False
    for p in permutations(range(n)):
        if all(mat[p[i]][p[j]] == ref[i][j] for i in range(n) for j in range(n)):
            return True
    return False


@dataclass
class ExceptionalPair:
    ambient: StructureAlgebra
    g2: EmbeddedSubalgebra
    f4: EmbeddedSubalgebra
    signs: tuple
    report: dict


@lru_cache(maxsize=1)
def dynkin_embedding_g2_f4() -> ExceptionalPair:
    """Construct and verify the commuting g2 + f4 pair inside e8.

    The f4 side is generated by {P3+P7, P4+P6, P5, P8}; the g2 side by P1
    and a signed three-term combination of nested brackets. The signs are
    convention-dependent, so the four assignments on the second and third
    summands are searched first (then all eight) for the one that commutes
    with the f4 generators; the chosen signs are recorded in the report.
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
                a1[lbl] = a1.get(lbl, ZERO) + s * c
        if commutes(a1):
            chosen = (signs, a1)
            break
    if chosen is None:
        raise VerificationError(
            "no sign assignment on the raising-word summands commutes with "
            "the partner subalgebra", {"words": SHORT_ROOT_WORDS},
        )
    signs, a1 = chosen

    g2 = EmbeddedSubalgebra.generate(alg, [a1, P[1]])
    f4 = EmbeddedSubalgebra.generate(alg, b_gens)
    report = {
        "signs": signs,
        "g2_dim": g2.dim,
        "f4_dim": f4.dim,
        "g2_cartan": g2.recovered_cartan(),
        "f4_cartan": f4.recovered_cartan(),
    }
    problems = []
    if g2.dim != 14:
        problems.append(f"first factor has dim {g2.dim}, expected 14")
    if f4.dim != 52:
        problems.append(f"second factor has dim {f4.dim}, expected 52")
    if g2.recovered_cartan() != G2_CARTAN:
        problems.append(f"recovered rank-2 Cartan matrix {g2.recovered_cartan()}")
    if not _cartan_matches(f4.recovered_cartan(), F4_CARTAN):
        problems.append(f"recovered rank-4 Cartan matrix {f4.recovered_cartan()}")
    for x in g2.span_basis:
        for y in f4.span_basis:
            if alg.bracket(x, y):
                problems.append("factors fail to commute")
                break
        else:
            continue
        break
    # joint span must be a direct sum of dimension 66
    ech = _Echelon()
    joint = 0
    for v in g2.span_basis + f4.span_basis:
        if ech.add(v):
            joint += 1
    report["joint_dim"] = joint
    if joint != 66:
        problems.append(f"joint span has dim {joint}, expected 66")
    report["problems"] = problems
    if problems:
        raise VerificationError("; ".join(problems), report)
    return ExceptionalPair(alg, g2, f4, signs, report)


def _add(u: Element, v: Element, sv: int = 1) -> Element:
    out = dict(u)
    for lbl, c in v.items():
        out[lbl] = out.get(lbl, ZERO) + sv * c
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
        e = [ZERO] * m
        e[i], e[i + 1] = ONE, -ONE
        rows.append(e)
    last = [ZERO] * m
    last[m - 2] = last[m - 1] = ONE
    rows.append(last)
    return tuple(linalg.solve(linalg.transpose(rows), [Fraction(t) for t in tvec]))


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
    import itertools

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


def _full_ops(mod):
    n = mod.algebra.rank
    return (
        [mod.full_matrix("E", i) for i in range(n)],
        [mod.full_matrix("F", i) for i in range(n)],
    )


def _span_closure(ops, seed_vecs):
    rows = []

    def reduce(v):
        v = v[:]
        for lead, r in rows:
            if v[lead]:
                c = v[lead] / r[lead]
                v = [a - c * b for a, b in zip(v, r)]
        return v

    def add(v):
        v = reduce(v)
        nz = next((i for i, x in enumerate(v) if x), None)
        if nz is None:
            return False
        rows.append((nz, v))
        return True

    frontier = []
    for v in seed_vecs:
        if add(v):
            frontier.append(v)
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = linalg.matvec(op, v)
                if any(w) and add(w):
                    new.append(w)
        frontier = new
    return [r for _, r in rows]


def zero_weight_split_witness(n: int) -> dict:
    """The middle vector of the odd orthogonal standard module.

    Restrict the (2n+2)-dim module to the folded so_{2n+1}: its weight-0
    line must split across the two extremal weight blocks of the ambient
    weight decomposition, with both components nonzero. Also checks that
    the +-theta_i blocks are swallowed whole.
    """
    from .highmod import realize_module

    aid = AlgebraId("D", n + 1)
    lam = Weight.from_fundamental(aid, [1] + [0] * n)
    mod = realize_module(lam)
    es, fs = _full_ops(mod)
    # folded operators: last two nodes merge
    eb = es[: n - 1] + [[[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(es[n - 1], es[n])]]
    fb = fs[: n - 1] + [[[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(fs[n - 1], fs[n])]]
    seed = [ONE] + [ZERO] * (mod.dim - 1)  # highest vector, weight theta_1
    span = _span_closure(eb + fb, [seed])
    if len(span) != 2 * n + 1:
        raise VerificationError(f"folded submodule has dim {len(span)}")

    offsets = mod._offsets()
    blocks = list(mod.blocks)
    # the two blocks restricting to zero under the first n coroots
    zero_blocks = [
        f for f in blocks
        if all(f[i] == 0 for i in range(n - 1)) and f[n - 1] == -f[n]
    ]
    if len(zero_blocks) != 2:
        raise VerificationError(f"expected 2 ambient blocks over weight 0: {zero_blocks}")

    # the submodule vector of restricted weight zero
    zero_vecs = []
    for v in span:
        support = {
            f for f in blocks
            if any(v[offsets[f] + k] for k in range(mod.block_dim[f]))
        }
        if support and support <= set(zero_blocks):
            zero_vecs.append((v, support))
    if len(zero_vecs) != 1:
        raise VerificationError(f"expected one zero-weight line, got {len(zero_vecs)}")
    v, support = zero_vecs[0]
    split = support == set(zero_blocks)
    # part (a): nonzero-weight blocks are swallowed whole
    whole = True
    for f in blocks:
        if f in zero_blocks:
            continue
        unit = [ZERO] * mod.dim
        unit[offsets[f]] = ONE
        reduced = _reduce_against(span, unit)
        if any(reduced):
            whole = False
    return {
        "submodule_dim": len(span),
        "components_both_nonzero": split,
        "nonzero_blocks_match": whole,
    }


def _reduce_against(rows, v):
    v = v[:]
    for r in rows:
        lead = next(i for i, x in enumerate(r) if x)
        if v[lead]:
            c = v[lead] / r[lead]
            v = [a - c * b for a, b in zip(v, r)]
    return v


def g2_seven_dim_pairing_witness() -> dict:
    """T(u1 (x) u2) for the 7-dim module: u1 of weight -alpha_1, u2 highest."""
    from .highmod import hom_space_basis, realize_module

    v1 = Weight.from_fundamental(G2, [1, 0])
    ts = hom_space_basis(v1, v1, v1)
    if len(ts) != 1:
        raise VerificationError(f"expected a 1-dim intertwiner space, got {len(ts)}")
    t = ts[0]
    mod = realize_module(v1)
    minus_alpha1 = tuple(Fraction(c) for c in (-2, 1))
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
    from .highmod import hom_space_basis

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
