"""Tensor-product multiplicities by three independent routes.

``tensor_multiplicity`` runs the classical alternating-character (Klimyk)
sum and serves as the oracle. ``weight_space_criterion`` decides multiplicity-one
queries purely from two weight-space dimensions. ``rank_route_multiplicity``
computes dim L(lam)[nu-mu] minus the rank of the subspace generated by the
overshooting lowering powers F_i^{n_i + 1}, via exact matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import InvariantError
from .highmod import all_weights, realize_module
from .rootsys import AlgebraId, Weight, build_root_system

ZERO = Fraction(0)


@dataclass(frozen=True)
class TensorQuery:
    lam: Weight
    mu: Weight
    nu: Weight

    def __post_init__(self):
        self.lam._check(self.mu)
        self.lam._check(self.nu)
        for w in (self.lam, self.mu, self.nu):
            if not w.is_dominant_integral():
                raise ValueError(f"{w} is not dominant integral")


@lru_cache(maxsize=None)
def tensor_decomposition(lam: Weight, mu: Weight) -> dict:
    """Multiplicity of each dominant nu in L(lam) (x) L(mu).

    Klimyk sum over the weights of L(lam); contributions whose shifted
    weight lands on a wall are dropped.
    """
    from .rootsys import _reduce_to_dominant

    aid = lam.algebra
    rs = build_root_system(aid)
    rho_f = tuple(int(x) for x in rs.weyl_vector.fundamental)
    out: dict = {}
    mu_f = mu.fundamental
    for sigma, m in all_weights(lam).items():
        x = tuple(s + a + r for s, a, r in zip(sigma, mu_f, rho_f))
        dom_f, sign, _ = _reduce_to_dominant(aid, x)
        if sign == 0:
            continue
        nu_f = tuple(a - r for a, r in zip(dom_f, rho_f))
        out[nu_f] = out.get(nu_f, 0) + sign * m
        if not out[nu_f]:
            del out[nu_f]
    bad = {k: v for k, v in out.items() if v < 0}
    if bad:
        raise InvariantError(f"negative Klimyk multiplicities {bad} in L({lam}) x L({mu})")
    return out


def tensor_multiplicity(q: TensorQuery) -> int:
    """Multiplicity of L(nu) in L(lam) (x) L(mu)."""
    return tensor_decomposition(q.lam, q.mu).get(q.nu.fundamental, 0)


def _criterion_core(lam: Weight, w_fund: tuple, mu_fund: tuple) -> int | None:
    """Tuple-level criterion; w_fund = fundamental coords of nu - mu."""
    from .highmod import dominant_character
    from .rootsys import _reduce_to_dominant

    aid = lam.algebra
    char = dominant_character(lam)
    if char.mults.get(_reduce_to_dominant(aid, w_fund)[0], 0) != 1:
        return None
    cartan = build_root_system(aid).cartan_matrix
    n = aid.rank
    for i in range(n):
        power = int(mu_fund[i]) + 1
        shifted = tuple(w_fund[k] + power * cartan[i][k] for k in range(n))
        if char.mults.get(_reduce_to_dominant(aid, shifted)[0], 0):
            return 0
    return 1


def weight_space_criterion(q: TensorQuery) -> int | None:
    """Multiplicity-one criterion from weight-space dimensions.

    Applicable when dim L(lam)[nu-mu] = 1: the multiplicity is 1 exactly
    when every overshoot space L(lam)[nu-mu+(n_i+1)a_i] vanishes. Returns
    None when the hypothesis fails (a distinct outcome, not 0).
    """
    return _criterion_core(q.lam, (q.nu - q.mu).fundamental, q.mu.fundamental)


def _rank_route_core(mod, mu_fund: tuple, w_fund: tuple) -> int:
    """Tuple-level overshoot-rank computation on a realized module."""
    if w_fund not in mod.block_dim:
        return 0
    aid = mod.algebra
    cartan = build_root_system(aid).cartan_matrix
    n = aid.rank
    base = mod.block_dim[w_fund]
    cols = []
    for i in range(n):
        power = int(mu_fund[i]) + 1
        src = tuple(w_fund[k] + power * cartan[i][k] for k in range(n))
        if src not in mod.block_dim:
            continue
        for b in range(mod.block_dim[src]):
            vec = [Fraction(1) if r == b else ZERO for r in range(mod.block_dim[src])]
            f = src
            ok = True
            for _ in range(power):
                blk = mod.f_block.get((i, f))
                if blk is None:
                    ok = False
                    break
                vec = linalg.matvec(blk, vec)
                f = tuple(f[k] - cartan[i][k] for k in range(n))
            if ok and any(vec):
                cols.append(vec)
    if not cols:
        return base
    return base - linalg.rank(cols)


def rank_route_multiplicity(q: TensorQuery, cap: int | None = None) -> int:
    """dim L(lam)[nu-mu] minus the rank of the overshoot subspace.

    The subspace is spanned by F_i^{n_i + 1} applied to every basis vector
    of weight nu - mu + (n_i + 1) a_i, over all simple i; its intersection
    with the weight space is rank-computed exactly.
    """
    mod = realize_module(q.lam, cap)
    return _rank_route_core(mod, q.mu.fundamental, (q.nu - q.mu).fundamental)


# ---------------------------------------------------------------------------
# G2 tensor graph

G2 = AlgebraId("G", 2)


def _g2_nodes(height_cap: int) -> list[tuple[int, int]]:
    nodes = []
    for b in range(height_cap // 2 + 1):
        for a in range(height_cap - 2 * b + 1):
            nodes.append((a, b))
    return sorted(nodes)


@dataclass(frozen=True)
class TensorGraph:
    height_cap: int
    nodes: tuple
    edges: frozenset  # unordered pairs incl. loops (a, a)

    def to_dot(self) -> str:
        lines = ["graph g2_tensor {"]
        for node in self.nodes:
            lines.append(f'  "{node[0]},{node[1]}";')
        for a, b in sorted(self.edges):
            lines.append(f'  "{a[0]},{a[1]}" -- "{b[0]},{b[1]}";')
        lines.append("}")
        return "\n".join(lines)


def g2_tensor_graph(height_cap: int) -> TensorGraph:
    """Fusion-with-the-7-dim graph over dominant weights of bounded height.

    Nodes are dominant integral weights mu with (mu|theta) <= height_cap;
    an edge joins mu and nu when L(nu) occurs in L(vartheta_1) (x) L(mu).
    """
    if height_cap < 1:
        raise ValueError("height_cap must be >= 1")
    v1 = Weight.from_fundamental(G2, [1, 0])
    nodes = _g2_nodes(height_cap)
    node_set = set(nodes)
    edges = set()
    for mu_f in nodes:
        mu = Weight.from_fundamental(G2, mu_f)
        dec = tensor_decomposition(v1, mu)
        for nu_f, m in dec.items():
            key = (int(nu_f[0]), int(nu_f[1]))
            if key in node_set:
                if m != 1:
                    raise InvariantError(
                        f"L({nu_f}) occurs {m} times in L(1,0) x L({mu_f}), expected once"
                    )
                edges.add(tuple(sorted((mu_f, key))))
    return TensorGraph(height_cap, tuple(nodes), frozenset(edges))
