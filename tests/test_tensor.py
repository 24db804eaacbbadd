import copy
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from liefusion import linalg
from liefusion.highmod import all_weights, realize_module, weyl_dimension
from liefusion.rootsys import AlgebraId, Weight, build_root_system, dual_weight, inner_product
from liefusion.tensor import (
    TensorQuery,
    _rank_route_core,
    weight_space_criterion,
    g2_tensor_graph,
    rank_route_multiplicity,
    tensor_decomposition,
    tensor_multiplicity,
)
from strategies import dominant_pairs

G2 = AlgebraId("G", 2)


def W(aid, coords):
    return Weight.from_fundamental(aid, coords)


def q(aid, f1, f2, f3):
    return TensorQuery(W(aid, f1), W(aid, f2), W(aid, f3))


def test_vacuum_and_cartan_components():
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), G2):
        mu = W(aid, [1] * aid.rank)
        zero = W(aid, [0] * aid.rank)
        assert tensor_multiplicity(TensorQuery(zero, mu, mu)) == 1
        top = mu + mu
        assert tensor_multiplicity(TensorQuery(mu, mu, top)) == 1
        assert rank_route_multiplicity(TensorQuery(mu, mu, top)) == 1


def test_upper_bound_by_weight_space():
    rng = random.Random(5)
    for aid in (AlgebraId("A", 2), AlgebraId("C", 2), G2):
        from liefusion.highmod import weight_multiplicity

        for _ in range(30):
            f1 = [rng.randint(0, 1) for _ in range(aid.rank)]
            f2 = [rng.randint(0, 2) for _ in range(aid.rank)]
            f3 = [rng.randint(0, 2) for _ in range(aid.rank)]
            query = q(aid, f1, f2, f3)
            n = tensor_multiplicity(query)
            assert n <= weight_multiplicity(query.lam, query.nu - query.mu)


def test_dimension_conservation():
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), AlgebraId("C", 2), G2):
        lam = W(aid, [1, 0])
        mu = W(aid, [0, 1])
        dec = tensor_decomposition(lam, mu)
        total = sum(m * weyl_dimension(W(aid, list(k))) for k, m in dec.items())
        assert total == weyl_dimension(lam) * weyl_dimension(mu)


@settings(max_examples=60, deadline=None)
@given(dominant_pairs())
def test_dimension_conservation_property(pair):
    lam, mu = pair
    dec = tensor_decomposition(lam, mu)
    total = sum(m * weyl_dimension(W(lam.algebra, list(k))) for k, m in dec.items())
    assert total == weyl_dimension(lam) * weyl_dimension(mu)


def ref_klimyk(lam, mu):
    """Klimyk sum over the weights of the first factor, L(lam), always, with
    its own reflection into the dominant chamber: sigma + mu + rho is
    reflected by s_i while a coordinate i is negative, and dropped when it
    ends on a wall."""
    cartan = build_root_system(lam.algebra).cartan_matrix
    out = {}
    for sigma, m in all_weights(lam).items():
        x, sign = tuple(s + a + 1 for s, a in zip(sigma, mu.fundamental)), 1
        while min(x) < 0:
            i = next(i for i, c in enumerate(x) if c < 0)
            x, sign = tuple(a - x[i] * c for a, c in zip(x, cartan[i])), -sign
        if min(x) > 0:
            nu = tuple(a - 1 for a in x)
            out[nu] = out.get(nu, 0) + sign * m
    return {nu: m for nu, m in out.items() if m}


def test_klimyk_matches_the_sum_over_the_first_factor():
    # tensor_decomposition sums over the smaller factor; the reference always
    # over the first. Both orders of every pair, so the first factor is the
    # larger one in half of them, and the equal-dimension ties
    ties = larger_first = 0
    for label in ("A2", "B2", "C2", "G2", "A3"):
        aid = AlgebraId.parse(label)
        lams = [W(aid, f) for f in itertools.product(range(3), repeat=aid.rank)
                if weyl_dimension(W(aid, f)) <= 64]
        for lam, mu in itertools.product(lams, repeat=2):
            if weyl_dimension(lam) * weyl_dimension(mu) > 1024:
                continue
            assert tensor_decomposition(lam, mu) == ref_klimyk(lam, mu), (lam, mu)
            assert tensor_decomposition(mu, lam) == ref_klimyk(lam, mu), (mu, lam)
            ties += lam != mu and weyl_dimension(lam) == weyl_dimension(mu)
            larger_first += weyl_dimension(lam) > weyl_dimension(mu)
    assert ties >= 10 and larger_first >= 100


# sha256 of every Klimyk table the cap-512 sweep reads, pair by pair in
# sweep order, each as its list of (nu, multiplicity) items in key order
KLIMYK_CAP_512_SHA256 = "333cc041c73b6278b18efdcd70e75e5e327413a5f8c9e5bc03bb824435809505"


def test_klimyk_tables_at_cap_512_are_pinned():
    # both orders of a pair share one sum over the smaller factor: the tables
    # are equal, one object when the dimensions differ, and hash, in key
    # order, to the pinned tables of one sum per order
    from liefusion.verify import SWEEP_TYPES, weights_under_cap

    h, n = hashlib.sha256(), 0
    for s, r in SWEEP_TYPES:
        aid = AlgebraId(s, r)
        ws = weights_under_cap(aid, 512)
        for d1, f1 in ws:
            for d2, f2 in ws:
                if d1 * d2 > 512:
                    continue
                dec = tensor_decomposition(W(aid, f1), W(aid, f2))
                swapped = tensor_decomposition(W(aid, f2), W(aid, f1))
                assert dec == swapped and (dec is swapped) == (d1 != d2 or f1 == f2)
                h.update(repr(list(dec.items())).encode())
                n += 1
    assert n == 5478
    assert h.hexdigest() == KLIMYK_CAP_512_SHA256


def test_symmetries():
    rng = random.Random(6)
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), G2):
        for _ in range(15):
            f = [[rng.randint(0, 1) for _ in range(aid.rank)] for _ in range(3)]
            lam, mu, nu = (W(aid, x) for x in f)
            a = tensor_multiplicity(TensorQuery(lam, mu, nu))
            assert a == tensor_multiplicity(TensorQuery(mu, lam, nu))
            assert a == tensor_multiplicity(TensorQuery(dual_weight(lam), nu, mu))
            assert a == tensor_multiplicity(
                TensorQuery(dual_weight(lam), dual_weight(mu), dual_weight(nu))
            )


def test_criterion_subcases_for_the_odd_orthogonal_series():
    # loop at a weight with vanishing last coordinate is forbidden
    b2 = AlgebraId("B", 2)
    v1 = W(b2, [1, 0])
    assert weight_space_criterion(TensorQuery(v1, v1, v1)) == 0
    # positive pairing against the short functional allows the loop
    mu = W(b2, [0, 1])
    assert weight_space_criterion(TensorQuery(v1, mu, mu)) == 1
    mu2 = W(b2, [1, 1])
    assert weight_space_criterion(TensorQuery(v1, mu2, mu2)) == 1
    # not-applicable stays distinct from zero
    far = W(b2, [3, 0])
    assert weight_space_criterion(TensorQuery(v1, W(b2, [0, 0]), far)) is None


def test_rank_route_matches_oracle_on_g2_low_heights():
    # exhaustive for the 7-dim charge over heights <= 4
    v1 = W(G2, [1, 0])
    nodes = [
        (a, b) for b in range(3) for a in range(5) if a + 2 * b <= 4
    ]
    for mu_f in nodes:
        for nu_f in nodes:
            query = q(G2, [1, 0], list(mu_f), list(nu_f))
            assert tensor_multiplicity(query) == rank_route_multiplicity(query)
            c = weight_space_criterion(query)
            if c is not None:
                assert c == tensor_multiplicity(query)


def _long_chains(lam, mu):
    """(nu, i) for every dominant nu = sigma + mu, sigma a weight of L(lam), with
    mu_i >= 2 and the overshoot chain of F_i^{mu_i + 1} starting in L(lam)."""
    cartan = build_root_system(lam.algebra).cartan_matrix
    weights = all_weights(lam)
    out = []
    for sigma in weights:
        nu = tuple(a + b for a, b in zip(sigma, mu.fundamental))
        for i, m in enumerate(mu.fundamental):
            start = tuple(x + (m + 1) * c for x, c in zip(sigma, cartan[i]))
            if min(nu) >= 0 and m >= 2 and start in weights:
                out.append((nu, i))
    return out


@pytest.mark.parametrize("label, lam_f, mu_f", [
    ("A2", [2, 2], [2, 0]), ("B2", [1, 2], [0, 2]), ("G2", [1, 1], [2, 0]),
])
def test_rank_route_matches_oracle_on_long_chains(label, lam_f, mu_f):
    # mu_i >= 2: each overshoot chain is three or more F-blocks long, and
    # some of them start inside L(lam), so their products enter the rank
    aid = AlgebraId.parse(label)
    lam, mu = W(aid, lam_f), W(aid, mu_f)
    assert _long_chains(lam, mu)
    dec = tensor_decomposition(lam, mu)
    for sigma in all_weights(lam):
        nu = [a + b for a, b in zip(sigma, mu_f)]
        if min(nu) >= 0:
            query = q(aid, lam_f, mu_f, nu)
            assert rank_route_multiplicity(query) == dec.get(tuple(nu), 0), nu


def test_rank_route_chain_leaving_the_module_adds_no_columns():
    # on a realized module an alpha_i-string is unbroken, so a chain that
    # starts in the module stays in it. With the middle F-block of a long
    # chain cut out, the chain leaves the module partway: it must add no
    # columns, like the chain whose first F-block is cut out
    lam, mu = W(G2, [1, 1]), W(G2, [2, 0])
    mod = realize_module(lam)
    cartan = build_root_system(G2).cartan_matrix
    nu, i = _long_chains(lam, mu)[0]
    w = tuple(a - b for a, b in zip(nu, mu.fundamental))

    def cut_at(k):
        cut = copy.copy(mod)
        cut.f_block = dict(mod.f_block)
        del cut.f_block[(i, tuple(x + k * c for x, c in zip(w, cartan[i])))]
        return _rank_route_core(cut, mu.fundamental, w)

    assert _rank_route_core(mod, mu.fundamental, w) < cut_at(3) == cut_at(2)


def _dense_rank_route(mod, mu_fund, powers):
    """{w: dim L[w] minus the rank of the overshoot columns} over every weight
    w of the module, the columns of F_i^{mu_i + 1} on the block of
    w + (mu_i + 1) alpha_i read off powers of the dense `full_matrix("F", i)`."""
    cartan = build_root_system(mod.algebra).cartan_matrix
    off = mod._offsets()
    n = mod.algebra.rank
    out = {}
    for w, dim in mod.block_dim.items():
        cols = []
        for i in range(n):
            power = mu_fund[i] + 1
            f = tuple(w[k] + power * cartan[i][k] for k in range(n))
            if f not in mod.block_dim:
                continue
            key = (i, power)
            if key not in powers:
                fi = mod.full_matrix("F", i)
                m = fi
                for _ in range(power - 1):
                    m = linalg.matmul(fi, m)
                powers[key] = m[0]
            m = powers[key]
            cols += [[m[r][c] for r in range(off[w], off[w] + dim)]
                     for c in range(off[f], off[f] + mod.block_dim[f])]
        out[w] = dim - linalg.rank(cols)
    return out


def test_rank_route_chain_length_matches_dense_powers():
    # B2 L(2,0) (x) L(0,1) holds no L(0,1): F_2^2 from the weight (0,2) of
    # L(2,0) covers the zero weight space. A chain one F-block short sees a
    # multiplicity of 1 here
    b2 = AlgebraId("B", 2)
    query = q(b2, [2, 0], [0, 1], [0, 1])
    assert tensor_multiplicity(query) == 0
    assert rank_route_multiplicity(query) == 0
    # A1 L(7) has only one-dimensional weight spaces, where the route reads
    # the rank off the entries; the D4 adjoint has a four-dimensional one
    bases = set()
    for label, lam_f, mu_f in (("B2", (2, 0), (0, 1)), ("A2", (2, 2), (2, 0)),
                               ("B2", (1, 2), (0, 2)), ("G2", (1, 1), (2, 0)),
                               ("A1", (7,), (2,)), ("D4", (0, 1, 0, 0), (1, 0, 1, 1))):
        aid = AlgebraId.parse(label)
        mod = realize_module(W(aid, lam_f))
        want = _dense_rank_route(mod, mu_f, {})
        got = {w: _rank_route_core(mod, mu_f, w) for w in mod.block_dim}
        assert got == want, label
        bases |= {(mod.block_dim[w] > 1, m > 0) for w, m in got.items()}
    # both readings, on one-dimensional and on larger weight spaces
    assert bases == {(False, False), (False, True), (True, False), (True, True)}


def test_rank_route_reads_entries_on_a_one_dimensional_weight():
    # at the weight (0, 2) of B2 L(2, 0) the one overshoot column, F_1 on the
    # one-dimensional block (2, 0), is nonzero and the route reads 0. With
    # that F-block zeroed on a copy, the same shapes give a zero column, and
    # the route reads 1
    lam, mu = W(AlgebraId("B", 2), [2, 0]), (0, 1)
    mod = realize_module(lam)
    w, key = (0, 2), (0, (2, 0))
    assert mod.block_dim[w] == mod.block_dim[key[1]] == 1
    assert [k for k in mod.f_block if k[1] in _overshoot_starts(mod, mu, w)] == [key]
    assert _rank_route_core(mod, mu, w) == 0
    zeroed = copy.copy(mod)
    zeroed.f_block = dict(mod.f_block)
    nums, den = mod.f_block[key]
    zeroed.f_block[key] = ([[0] * len(r) for r in nums], den)
    assert _rank_route_core(zeroed, mu, w) == 1


def _overshoot_starts(mod, mu_fund, w):
    """The blocks w + (mu_i + 1) alpha_i of the module, over every i."""
    cartan = build_root_system(mod.algebra).cartan_matrix
    starts = (tuple(x + (m + 1) * c for x, c in zip(w, row)) for m, row in zip(mu_fund, cartan))
    return [f for f in starts if f in mod.block_dim]


def test_g2_graph_structure():
    gr = g2_tensor_graph(4)
    rs = build_root_system(G2)
    short = set()
    for r in rs.positive_roots:
        if inner_product(r, r) != 2:
            f = tuple(int(x) for x in r.fundamental)
            short.add(f)
            short.add(tuple(-x for x in f))
    for mu in gr.nodes:
        for nu in gr.nodes:
            has = tuple(sorted((mu, nu))) in gr.edges
            if mu == nu:
                assert has == (mu[0] > 0)
            else:
                d = (nu[0] - mu[0], nu[1] - mu[1])
                assert has == (d in short)


def test_g2_graph_height_one_and_dot():
    gr = g2_tensor_graph(1)
    assert set(gr.nodes) == {(0, 0), (1, 0)}
    assert ((0, 0), (1, 0)) in gr.edges
    assert ((1, 0), (1, 0)) in gr.edges  # loop at the 7-dim weight
    dot = gr.to_dot()
    assert dot.startswith("graph") and '"1,0" -- "1,0"' in dot


def test_graph_rejects_bad_height():
    with pytest.raises(ValueError):
        g2_tensor_graph(0)
