"""Admissible weights, conformal weights, and affine fusion rules.

The fusion oracle is the affine-Weyl folding of the finite tensor
decomposition, with the same wall-drop rule as the finite reduction. The
closed-form rules cover the charges treated by type: the standard-module
charge for the A/C series, standard and spin charges for the B series,
vector and half-spin charges for the D series, and the 7-dimensional
charge for G2. Everything else is reported as unsupported rather than 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError
from .highmod import weight_multiplicity
from .rootsys import AlgebraId, Weight, build_root_system, dual_weight, inner_product, to_dominant
from .tensor import TensorQuery, tensor_decomposition, tensor_multiplicity

ZERO = Fraction(0)


@dataclass(frozen=True)
class AffineWeight:
    finite_part: Weight
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.finite_part.is_dominant_integral():
            raise ValueError(f"{self.finite_part} is not dominant integral")
        rs = build_root_system(self.finite_part.algebra)
        if inner_product(self.finite_part, rs.highest_root) > self.level:
            raise ValueError(
                f"{self.finite_part} is not admissible at level {self.level}"
            )

    def __str__(self) -> str:
        return f"{self.finite_part}@{self.level}"


@dataclass(frozen=True)
class FusionQuery:
    lam: AffineWeight
    mu: AffineWeight
    nu: AffineWeight

    def __post_init__(self):
        if not (self.lam.level == self.mu.level == self.nu.level):
            raise ValueError("fusion query needs a common level")
        self.lam.finite_part._check(self.mu.finite_part)
        self.lam.finite_part._check(self.nu.finite_part)

    @property
    def level(self) -> int:
        return self.lam.level


def admissible_weights(algebra: AlgebraId, level: int) -> list[AffineWeight]:
    """All dominant integral weights with (lam|theta) <= level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    rs = build_root_system(algebra)
    theta = rs.highest_root
    marks = [inner_product(w, theta) for w in rs.fundamental_weights]
    n = algebra.rank
    out = []

    def rec(prefix, budget):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        k = 0
        while k * marks[i] <= budget:
            rec(prefix + [k], budget - k * marks[i])
            k += 1

    rec([], Fraction(level))
    return [
        AffineWeight(Weight.from_fundamental(algebra, f), level) for f in sorted(out)
    ]


def conformal_weight(w: AffineWeight) -> Fraction:
    """Lowest energy of the level-l module: (lam|lam+2rho)/(2(l+h)).

    The closed form is cross-checked against a Casimir eigenvalue computed
    from an explicit module realization in the test suite.
    """
    rs = build_root_system(w.finite_part.algebra)
    lam = w.finite_part
    rho = rs.weyl_vector
    num = inner_product(lam, lam) + 2 * inner_product(lam, rho)
    return num / (2 * (w.level + rs.dual_coxeter))


def casimir_eigenvalue(lam: Weight, cap: int | None = None) -> Fraction:
    """Casimir eigenvalue on L(lam) from an explicit realization.

    Independent route: close the generator matrices into a matrix Lie
    algebra, build the invariant trace form, rescale it through the
    highest coroot, and contract dual bases.
    """
    from . import linalg
    from .highmod import realize_module

    mod = realize_module(lam, cap)
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    gens = [mod.full_matrix("E", i) for i in range(n)]
    gens += [mod.full_matrix("F", i) for i in range(n)]
    gens += [mod.full_matrix("H", i) for i in range(n)]

    dim = mod.dim

    def flat(m):
        return [x for row in m for x in row]

    basis = []
    rows = []

    def add(m):
        v = flat(m)
        vv = v[:]
        for lead, r, mat in rows:
            if vv[lead]:
                c = vv[lead] / r[lead]
                vv = [a - c * b for a, b in zip(vv, r)]
        nz = next((i for i, x in enumerate(vv) if x), None)
        if nz is None:
            return False
        rows.append((nz, vv, m))
        basis.append(m)
        return True

    frontier = [m for m in gens if add(m)]
    while frontier:
        new = []
        for a in frontier:
            for b in list(basis):
                c = _comm(a, b)
                if add(c):
                    new.append(c)
        frontier = new

    k = len(basis)
    tr = linalg.zeros(k, k)
    for i in range(k):
        for j in range(i, k):
            t = sum(
                (basis[i][r][s] * basis[j][s][r] for r in range(dim) for s in range(dim)),
                ZERO,
            )
            tr[i][j] = tr[j][i] = t

    # scale: the highest-root coroot has squared length 2
    theta = rs.highest_root
    d = rs._d
    coro = [theta.coords[i] * d[i] for i in range(n)]
    h_theta = None
    for i in range(n):
        m = mod.full_matrix("H", i)
        scaled = [[coro[i] * x for x in row] for row in m]
        h_theta = scaled if h_theta is None else [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(h_theta, scaled)
        ]
    tr_ht = sum(
        (h_theta[r][s] * h_theta[s][r] for r in range(dim) for s in range(dim)), ZERO
    )
    scale = tr_ht / 2  # trace form = scale * normalized form

    binv = linalg.inverse([[tr[i][j] / scale for j in range(k)] for i in range(k)])
    cas = linalg.zeros(dim, dim)
    for i in range(k):
        for j in range(k):
            if binv[i][j]:
                prod = linalg.matmul(basis[i], basis[j])
                for r in range(dim):
                    for s in range(dim):
                        cas[r][s] += binv[i][j] * prod[r][s]
    eig = cas[0][0]
    for r in range(dim):
        for s in range(dim):
            if cas[r][s] != (eig if r == s else 0):
                raise InvariantError(
                    f"Casimir on L({lam}) is not scalar: entry ({r}, {s}) is "
                    f"{cas[r][s]}, diagonal {eig}"
                )
    return eig


def _comm(a, b):
    from . import linalg

    ab = linalg.matmul(a, b)
    ba = linalg.matmul(b, a)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


# ---------------------------------------------------------------------------
# Kac-Walton folding


@lru_cache(maxsize=None)
def fusion_decomposition(lam: Weight, mu: Weight, level: int) -> dict:
    """Level-l fusion of the two admissibles, by affine-Weyl folding."""
    aid = lam.algebra
    rs = build_root_system(aid)
    rho = rs.weyl_vector
    theta = rs.highest_root
    kmax = level + rs.dual_coxeter
    out: dict = {}
    for nu_f, mult in tensor_decomposition(lam, mu).items():
        x = Weight.from_fundamental(aid, nu_f) + rho
        sign = 1
        while True:
            x, s, _ = to_dominant(x)
            if s == 0:
                sign = 0
                break
            sign *= s
            t = inner_product(x, theta)
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
    bad = {k: v for k, v in out.items() if v < 0}
    if bad:
        raise InvariantError(
            f"negative Kac-Walton multiplicities {bad} in L({lam}) x L({mu}) "
            f"at level {level}"
        )
    return out


def kac_walton_fusion(q: FusionQuery) -> int:
    return fusion_decomposition(
        q.lam.finite_part, q.mu.finite_part, q.level
    ).get(q.nu.finite_part.fundamental, 0)


# ---------------------------------------------------------------------------
# closed-form rules per type


def _supported_charges(aid: AlgebraId) -> dict:
    """Map charge fundamental tuple -> rule tag."""
    n = aid.rank
    e = lambda i: tuple(Fraction(1 if k == i else 0) for k in range(n))
    if aid.series in ("A", "C"):
        return {e(0): "plain"}
    if aid.series == "B":
        return {e(0): "vector-b", e(n - 1): "plain"}
    if aid.series == "D":
        return {e(0): "plain", e(n - 2): "plain", e(n - 1): "plain"}
    if aid.series == "G":
        return {e(0): "seven-g2"}
    return {}


def closed_form_fusion(q: FusionQuery) -> int | None:
    """Closed-form fusion for the supported charges; None when unsupported.

    For every supported charge the rule is the weight-space dimension
    dim L(lam)[nu - mu], with two loop exceptions: the B-series standard
    charge needs the last fundamental coordinate of mu positive, and the
    G2 7-dim charge needs the first one positive.
    """
    aid = q.lam.finite_part.algebra
    tag = _supported_charges(aid).get(q.lam.finite_part.fundamental)
    if tag is None:
        return None
    lam, mu, nu = q.lam.finite_part, q.mu.finite_part, q.nu.finite_part
    base = weight_multiplicity(lam, nu - mu)
    if base > 1:
        raise InvariantError(
            f"closed-form fusion for charge {lam} needs weight multiplicity <= 1, "
            f"got {base} at {nu - mu}"
        )
    if mu == nu:
        if tag == "vector-b" and mu.fundamental[-1] == 0:
            return 0
        if tag == "seven-g2" and mu.fundamental[0] == 0:
            return 0
    return base


# ---------------------------------------------------------------------------
# generating families and compression preconditions


def generating_check(family, level: int, algebra: AlgebraId | None = None):
    """Reachability of every admissible from the family under fusion.

    Returns (flag, chains) where chains maps each reached weight to the
    (charge, source) step that first produced it.
    """
    family = [w if isinstance(w, AffineWeight) else AffineWeight(w, level) for w in family]
    if algebra is None:
        if not family:
            raise ValueError("need the algebra when the family is empty")
        algebra = family[0].finite_part.algebra
    admissible = [w.finite_part.fundamental for w in admissible_weights(algebra, level)]
    charges = set()
    for w in family:
        charges.add(w.finite_part.fundamental)
        charges.add(dual_weight(w.finite_part).fundamental)
    if not family:
        only_vacuum = admissible == [
            tuple(ZERO for _ in range(algebra.rank))
        ]
        return only_vacuum, {}

    reached = dict.fromkeys(charges)  # weight -> producing step
    frontier = list(charges)
    while frontier:
        new = []
        for src in frontier:
            for ch in charges:
                dec = fusion_decomposition(
                    Weight.from_fundamental(algebra, ch),
                    Weight.from_fundamental(algebra, src),
                    level,
                )
                for tgt, m in dec.items():
                    if m > 0 and tgt not in reached:
                        reached[tgt] = (ch, src)
                        new.append(tgt)
        frontier = new
    ok = all(f in reached for f in admissible)
    return ok, reached


@dataclass(frozen=True)
class LevelReductionResult:
    applicable: bool
    fusion: int | None = None
    tensor: int | None = None

    @property
    def agree(self) -> bool | None:
        if not self.applicable:
            return None
        return self.fusion == self.tensor


def large_level_check(q: FusionQuery) -> LevelReductionResult:
    """Large-level reduction test: fusion equals the finite tensor rule.

    Applicable when (mu|theta) <= l - a or (nu|theta) <= l - a with
    a = (lam|theta); in that regime the oracle and the tensor multiplicity
    are computed and compared.
    """
    rs = build_root_system(q.lam.finite_part.algebra)
    theta = rs.highest_root
    a = inner_product(q.lam.finite_part, theta)
    slack = q.level - a
    applicable = (
        inner_product(q.mu.finite_part, theta) <= slack
        or inner_product(q.nu.finite_part, theta) <= slack
    )
    if not applicable:
        return LevelReductionResult(False)
    fusion = kac_walton_fusion(q)
    tensor = tensor_multiplicity(
        TensorQuery(q.lam.finite_part, q.mu.finite_part, q.nu.finite_part)
    )
    return LevelReductionResult(True, fusion, tensor)


class HypothesisViolation(Exception):
    """A level-reduction hypothesis failed; the message names it."""


def level_reduction_conditions(lam: Weight, mu: Weight, nu: Weight, rho: Weight,
                       mu1: Weight, nu1: Weight, level: int, a: int,
                       cap: int | None = None) -> dict:
    """Evaluate the three level-reduction conditions.

    The hypothesis block is checked first: multiplicity-free charge,
    a = max of the three theta-pairings <= level, (rho|theta) <= level - a,
    and a one-dimensional level-a fusion space for (nu1; lam, mu1).
    Conditions (b) and (c) evaluate the stated pairings with an explicit
    intertwiner and exact module vectors.
    """
    from .highmod import full_character, hom_space_basis

    rs = build_root_system(lam.algebra)
    theta = rs.highest_root
    char = full_character(lam, cap)
    if any(m > 1 for m in char.mults.values()):
        raise HypothesisViolation("charge weight spaces exceed dimension 1")
    pair_max = max(
        inner_product(lam, theta), inner_product(mu1, theta), inner_product(nu1, theta)
    )
    if pair_max != a:
        raise HypothesisViolation(f"a = {a} is not the maximal theta-pairing {pair_max}")
    if a > level:
        raise HypothesisViolation(f"a = {a} exceeds the level {level}")
    if inner_product(rho, theta) > level - a:
        raise HypothesisViolation("(rho|theta) exceeds level - a")
    v_a = kac_walton_fusion(
        FusionQuery(AffineWeight(lam, a), AffineWeight(mu1, a), AffineWeight(nu1, a))
    )
    if v_a != 1:
        raise HypothesisViolation(f"level-a fusion space has dimension {v_a}")

    flags = {"a": mu == mu1 + rho and nu == nu1 + rho, "b": False, "c": False}

    w = (nu - mu).fundamental
    ts = hom_space_basis(lam, mu1, nu1, cap)
    t = ts[0] if ts else None

    if t is not None and mu == mu1 + rho and tensor_multiplicity(
        TensorQuery(nu1, rho, nu)
    ) >= 1:
        nu1_char = full_character(nu1, cap)
        if all(m <= 1 for m in nu1_char.mults.values()):
            mod = t.mlam
            if w in mod.block_dim:
                img = t.apply_pair(w, 0, mu1.fundamental, 0)
                flags["b"] = bool(img)

    if t is not None and nu == nu1 + rho and tensor_multiplicity(
        TensorQuery(mu1, rho, mu)
    ) >= 1:
        mu1_char = full_character(mu1, cap)
        if all(m <= 1 for m in mu1_char.mults.values()):
            mod = t.mlam
            top_nu1 = (nu1.fundamental, 0)
            if w in mod.block_dim:
                found = False
                for f2 in t.mmu.blocks:
                    for b in range(t.mmu.block_dim[f2]):
                        img = t.apply_pair(w, 0, f2, b)
                        if img.get(top_nu1):
                            found = True
                            break
                    if found:
                        break
                flags["c"] = found
    return flags
