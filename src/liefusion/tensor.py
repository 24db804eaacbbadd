"""Tensor-product multiplicities by three independent routes.

``tensor_multiplicity`` runs the classical alternating-character (Klimyk)
sum, over the smaller factor, and serves as the oracle; it reads no
realized module. Both orders of a pair share that one sum and its cached
table. ``weight_space_criterion`` decides multiplicity-one queries purely
from two weight-space dimensions. ``rank_route_multiplicity`` computes
dim L(lam)[nu-mu] minus the rank of the subspace generated by the
overshooting lowering powers F_i^{n_i + 1}, via exact matrices; on a
one-dimensional weight space that rank is 1 when any overshoot entry is
nonzero, and no elimination runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import InvariantError
from .highmod import check_cap, dominant_character, realize_module, weyl_dimension
from .rootsys import AlgebraId, Weight, _reduce_to_dominant, build_root_system


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

    Klimyk sum over the weights of the factor with the smaller Weyl
    dimension, L(lam) on a tie: L(lam) (x) L(mu) and L(mu) (x) L(lam) are
    isomorphic, so either sum gives the same multiplicities. When L(mu) is
    the smaller factor, the table is the one of (mu, lam), whose sum is the
    same: one sum, and one cached table, serves both orders of a pair.
    Contributions whose shifted weight lands on a wall are dropped. The
    module cap is checked on L(lam) alone, and only the summed factor's
    character is built. Both weights must be dominant integral; anything
    else is rejected with ValueError.
    """
    lam._check(mu)
    for w in (lam, mu):
        if not w.is_dominant_integral():
            raise ValueError(f"{w} is not dominant integral")
    check_cap(weyl_dimension(lam), f"dim L({lam})")
    if weyl_dimension(mu) < weyl_dimension(lam):
        return tensor_decomposition(mu, lam)
    aid = lam.algebra
    out: dict = {}
    mu_f = mu.fundamental
    for sigma, m in dominant_character(lam).weights.items():
        x = tuple(s + a + 1 for s, a in zip(sigma, mu_f))
        dom_f, sign, _ = _reduce_to_dominant(aid, x)
        if sign == 0:
            continue
        nu_f = tuple(a - 1 for a in dom_f)
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
    weights = dominant_character(lam).weights
    if weights.get(w_fund, 0) != 1:
        return None
    aid = lam.algebra
    cartan = build_root_system(aid).cartan_matrix
    n = aid.rank
    for i in range(n):
        power = mu_fund[i] + 1
        shifted = tuple(w_fund[k] + power * cartan[i][k] for k in range(n))
        if shifted in weights:
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
    """Tuple-level overshoot-rank computation on a realized module.

    A chain starts from the numerators of the first F-block of F_i^power
    and multiplies in the numerators of each further one, dropping every
    denominator: that scales the product, which leaves its rank as it is.
    A chain that leaves the module adds no columns. On a one-dimensional
    weight space the rank is read off the entries, 1 when any is nonzero,
    with no elimination.
    """
    if w_fund not in mod.block_dim:
        return 0
    aid = mod.algebra
    cartan = build_root_system(aid).cartan_matrix
    n = aid.rank
    base = mod.block_dim[w_fund]
    cols = []
    for i in range(n):
        power = mu_fund[i] + 1
        f = tuple(w_fund[k] + power * cartan[i][k] for k in range(n))
        if (i, f) not in mod.f_block:
            continue
        # the columns of F_i^power on the block f, one numerator product
        # per power after the first
        block = mod.f_block[(i, f)][0]
        for _ in range(power - 1):
            f = tuple(f[k] - cartan[i][k] for k in range(n))
            if (i, f) not in mod.f_block:
                break
            block = linalg.matmul(mod.f_block[(i, f)], (block, 1))[0]
        else:
            cols.extend(zip(*block))
    if base == 1:
        # columns of length 1: their rank is 1 when any entry is nonzero
        return 0 if any(c[0] for c in cols) else 1
    return base - linalg.rank(cols)


def rank_route_multiplicity(q: TensorQuery) -> int:
    """dim L(lam)[nu-mu] minus the rank of the overshoot subspace.

    The subspace is spanned by F_i^{n_i + 1} applied to every basis vector
    of weight nu - mu + (n_i + 1) a_i, over all simple i; its intersection
    with the weight space is rank-computed exactly.
    """
    mod = realize_module(q.lam)
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
    v1 = Weight(G2, (1, 0))
    nodes = _g2_nodes(height_cap)
    node_set = set(nodes)
    edges = set()
    for mu_f in nodes:
        dec = tensor_decomposition(v1, Weight(G2, mu_f))
        for key, m in dec.items():
            if key in node_set:
                if m != 1:
                    raise InvariantError(
                        f"L({key}) occurs {m} times in L(1,0) x L({mu_f}), expected once"
                    )
                edges.add(tuple(sorted((mu_f, key))))
    return TensorGraph(tuple(nodes), frozenset(edges))
