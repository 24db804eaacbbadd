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
from operator import mul

from . import linalg
from .errors import InvariantError
from .highmod import full_character, hom_space_basis, realize_module, weight_multiplicity
from .rootsys import (
    AlgebraId, Weight, _reduce_to_dominant, build_root_system, dual_weight, inner_product,
)
from .tensor import TensorQuery, tensor_decomposition, tensor_multiplicity


def theta_pairing(lam: Weight):
    """(lam|theta), a dot product with the integer comarks (omega_i|theta)."""
    return sum(map(mul, lam.fundamental, build_root_system(lam.algebra).comarks))


@dataclass(frozen=True)
class AffineWeight:
    finite_part: Weight
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.finite_part.is_dominant_integral():
            raise ValueError(f"{self.finite_part} is not dominant integral")
        if theta_pairing(self.finite_part) > self.level:
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
    marks = build_root_system(algebra).comarks
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

    rec([], level)
    return [AffineWeight(Weight(algebra, f), level) for f in sorted(out)]


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


def casimir_eigenvalue(lam: Weight) -> Fraction:
    """Casimir eigenvalue on L(lam) from an explicit realization.

    Independent route: close the generator matrices into a matrix Lie
    algebra, build the invariant trace form, rescale it through the
    highest coroot, and contract dual bases. Each generator enters as its
    integer numerators: scaling a generator changes neither the span
    closure nor the Casimir, which does not depend on the basis. So the
    closure, the trace form and the contraction all run on int matrices,
    and one Fraction is built, the eigenvalue.
    """
    mod = realize_module(lam)
    n = lam.algebra.rank
    gens = [mod.full_matrix(kind, i)[0] for kind in "EFH" for i in range(n)]

    def flat(m):
        return {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row)}

    # the echelon decides independence; basis keeps the unreduced matrices
    basis, _ = linalg.closure(gens, lambda a, kept: (_comm(a, b) for b in kept), flat)

    # the trace form tr(X_i X_j): X_i read by rows against X_j read by columns
    rows = [[x for row in m for x in row] for m in basis]
    cols = [[x for col in zip(*m) for x in col] for m in basis]
    k = len(basis)
    tr = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            tr[i][j] = tr[j][i] = sum(map(mul, rows[i], cols[j]))

    # scale: the highest-root coroot has squared length 2. H_theta = sum of
    # comark_i H_i acts on weight block f by sum_i comark_i f_i
    coro = build_root_system(lam.algebra).comarks
    tr_ht = sum(k * sum(map(mul, coro, f)) ** 2 for f, k in mod.block_dim.items())

    # trace form = (tr_ht / 2) * normalized form, so the Casimir is
    # sum_ij (tr_ht / 2) (tr^-1)_ij X_i X_j = tr_ht / (2 d) * cas, with
    # tr^-1 = (inv, d) and cas the integer sum of inv_ij X_i X_j
    try:
        inv, d = linalg.inverse(tr)
    except ValueError:
        # the closure of an irreducible's generators is semisimple
        raise InvariantError(f"trace form on the generator closure of L({lam}) "
                             f"is degenerate") from None
    dim = mod.dim
    cas = [[0] * dim for _ in range(dim)]
    for i in range(k):
        comb = [[0] * dim for _ in range(dim)]
        for j in range(k):
            c = inv[i][j]
            if c:
                comb = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(comb, basis[j])]
        prod = _mul(basis[i], comb)
        cas = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(cas, prod)]
    eig = cas[0][0]
    for r in range(dim):
        for s in range(dim):
            if cas[r][s] != (eig if r == s else 0):
                raise InvariantError(
                    f"Casimir on L({lam}) is not scalar: entry ({r}, {s}) is "
                    f"{Fraction(cas[r][s] * tr_ht, 2 * d)}, diagonal "
                    f"{Fraction(eig * tr_ht, 2 * d)}"
                )
    return Fraction(eig * tr_ht, 2 * d)


def _mul(a, b):
    return linalg.matmul((a, 1), (b, 1))[0]


def _comm(a, b):
    """[a, b] for integer matrices a, b."""
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(_mul(a, b), _mul(b, a))]


# ---------------------------------------------------------------------------
# Kac-Walton folding


@lru_cache(maxsize=None)
def fusion_decomposition(lam: Weight, mu: Weight, level: int) -> dict:
    """Level-l fusion of the two admissibles, by affine-Weyl folding.

    The fold runs on fundamental tuples: x = nu + rho is reduced to the
    dominant chamber, then reflected in the affine wall while its
    theta-pairing t exceeds kmax = level + h^vee.
    """
    aid = lam.algebra
    rs = build_root_system(aid)
    comarks = rs.comarks
    theta_f = rs.highest_root.fundamental
    kmax = level + rs.dual_coxeter
    out: dict = {}
    for nu_f, mult in tensor_decomposition(lam, mu).items():
        x = tuple(a + 1 for a in nu_f)
        sign = 1
        while True:
            x, s, _ = _reduce_to_dominant(aid, x)
            if s == 0:
                sign = 0
                break
            sign *= s
            t = sum(map(mul, x, comarks))
            if t < kmax:
                break
            if t == kmax:
                sign = 0
                break
            x = tuple(a - (t - kmax) * b for a, b in zip(x, theta_f))
            sign = -sign
        if sign == 0:
            continue
        key = tuple(a - 1 for a in x)
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
    e = lambda i: tuple(1 if k == i else 0 for k in range(n))
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


def generating_check(family, level: int, algebra: AlgebraId):
    """Reachability of every admissible of the algebra from the family under
    fusion at the level.

    The family holds weights of the algebra, each admissible at the level
    (ValueError otherwise). Returns (flag, chains) where chains maps each
    reached weight to the (charge, source) step that first produced it.
    """
    admissible = [w.finite_part.fundamental for w in admissible_weights(algebra, level)]
    charges = set()
    for w in family:
        AffineWeight(w, level)  # refuses a weight that is not admissible
        charges.add(w.fundamental)
        charges.add(dual_weight(w).fundamental)
    if not family:
        only_vacuum = admissible == [(0,) * algebra.rank]
        return only_vacuum, {}

    reached = dict.fromkeys(charges)  # weight -> producing step
    frontier = list(charges)
    while frontier:
        new = []
        for src in frontier:
            for ch in charges:
                dec = fusion_decomposition(Weight(algebra, ch), Weight(algebra, src), level)
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
    slack = q.level - theta_pairing(q.lam.finite_part)
    applicable = (
        theta_pairing(q.mu.finite_part) <= slack
        or theta_pairing(q.nu.finite_part) <= slack
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
                       mu1: Weight, nu1: Weight, level: int, a: int) -> dict:
    """Evaluate the three level-reduction conditions.

    The hypothesis block is checked first: multiplicity-free charge,
    a = max of the three theta-pairings <= level, (rho|theta) <= level - a,
    and a one-dimensional level-a fusion space for (nu1; lam, mu1).
    Conditions (b) and (c) evaluate the stated pairings with an explicit
    intertwiner and exact module vectors.
    """
    if any(m > 1 for m in full_character(lam).weights.values()):
        raise HypothesisViolation("charge weight spaces exceed dimension 1")
    pair_max = max(theta_pairing(lam), theta_pairing(mu1), theta_pairing(nu1))
    if pair_max != a:
        raise HypothesisViolation(f"a = {a} is not the maximal theta-pairing {pair_max}")
    if a > level:
        raise HypothesisViolation(f"a = {a} exceeds the level {level}")
    if theta_pairing(rho) > level - a:
        raise HypothesisViolation("(rho|theta) exceeds level - a")
    v_a = kac_walton_fusion(
        FusionQuery(AffineWeight(lam, a), AffineWeight(mu1, a), AffineWeight(nu1, a))
    )
    if v_a != 1:
        raise HypothesisViolation(f"level-a fusion space has dimension {v_a}")

    flags = {"a": mu == mu1 + rho and nu == nu1 + rho, "b": False, "c": False}

    w = (nu - mu).fundamental
    ts = hom_space_basis(lam, mu1, nu1)
    t = ts[0] if ts else None

    if t is not None and mu == mu1 + rho and tensor_multiplicity(
        TensorQuery(nu1, rho, nu)
    ) >= 1:
        if all(m <= 1 for m in full_character(nu1).weights.values()):
            mod = t.mlam
            if w in mod.block_dim:
                img = t.apply_pair(w, 0, mu1.fundamental, 0)
                flags["b"] = bool(img)

    if t is not None and nu == nu1 + rho and tensor_multiplicity(
        TensorQuery(mu1, rho, mu)
    ) >= 1:
        if all(m <= 1 for m in full_character(mu1).weights.values()):
            mod = t.mlam
            top_nu1 = (nu1.fundamental, 0)
            if w in mod.block_dim:
                found = False
                for f2, d2 in t.mmu.block_dim.items():
                    for b in range(d2):
                        img = t.apply_pair(w, 0, f2, b)
                        if img.get(top_nu1):
                            found = True
                            break
                    if found:
                        break
                flags["c"] = found
    return flags
