import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from character_reference import ref_all_weights, ref_dominant_character, walk_dominant_character
from liefusion import linalg
from liefusion.highmod import (
    CapExceeded,
    ModuleRealization,
    all_weights,
    dominant_character,
    full_character,
    hom_space_basis,
    realize_module,
    weight_multiplicity,
    weyl_dimension,
)
from liefusion.rootsys import (
    AlgebraId,
    Weight,
    build_root_system,
    dual_weight,
    inner_product,
    weyl_orbit_fund,
)
from liefusion.tensor import TensorQuery, tensor_multiplicity
from rational_view import frac_matmul, rational, rational_vector, rref_view, zeros
from strategies import dominant_weights

G2 = AlgebraId("G", 2)


def W(aid, coords):
    return Weight.from_fundamental(aid, coords)


def gram_full(mod):
    """The block-diagonal contravariant Gram matrix of a realized module."""
    off = mod._offsets()
    m = zeros(mod.dim, mod.dim)
    for f in mod.block_dim:
        g = mod.gram[f]
        for a in range(mod.block_dim[f]):
            for b in range(mod.block_dim[f]):
                m[off[f] + a][off[f] + b] = g[a][b]
    return m


def module_to_json(mod):
    """Basis weights plus sparse generator triples, rational strings."""
    off = mod._offsets()
    entries = {"E": [], "F": []}
    cartan = build_root_system(mod.algebra).cartan_matrix
    for kind, blocks in (("E", mod.e_block), ("F", mod.f_block)):
        step = 1 if kind == "E" else -1
        for (i, f), pair in blocks.items():
            blk = rational(pair)
            tgt = tuple(x + step * c for x, c in zip(f, cartan[i]))
            for col in range(mod.block_dim[f]):
                for row in range(mod.block_dim[tgt]):
                    if blk[row][col]:
                        entries[kind].append(
                            [i, off[tgt] + row, off[f] + col, str(blk[row][col])]
                        )
    return json.dumps(
        {
            "algebra": str(mod.algebra),
            # the first block is the highest weight's
            "highest_weight": [str(c) for c in next(iter(mod.block_dim))],
            "dim": mod.dim,
            "basis_weights": [
                [str(c) for c in f] for f, k in mod.block_dim.items() for _ in range(k)
            ],
            "gram": [[[str(x) for x in row] for row in mod.gram[f]] for f in mod.block_dim],
            "generators": entries,
        }
    )


def dominant_part(ch):
    """The multiplicities of the dominant weights, in the table's order."""
    return {f: m for f, m in ch.weights.items() if min(f) >= 0}


def intertwiner_apply(t, tensor_vec):
    """T applied to a tensor vector {(f1, f2, a, b): coeff}."""
    out = {}
    for key, c in tensor_vec.items():
        for k2, c2 in t.columns.get(key, {}).items():
            out[k2] = out.get(k2, Fraction(0)) + c * c2
            if not out[k2]:
                del out[k2]
    return out


def test_g2_seven_dim_weights():
    # weights are 0 and the six short roots, each once
    ws = all_weights(W(G2, [1, 0]))
    assert len(ws) == 7
    assert all(m == 1 for m in ws.values())
    rs = build_root_system(G2)
    short = set()
    for r in rs.positive_roots:
        from liefusion.rootsys import inner_product

        if inner_product(r, r) != 2:
            short.add(tuple(int(x) for x in r.fundamental))
            short.add(tuple(-int(x) for x in r.fundamental))
    short.add((0, 0))
    assert {tuple(int(x) for x in k) for k in ws} == short


def test_g2_adjoint():
    ch = full_character(W(G2, [0, 1]))
    assert sum(ch.weights.values()) == 14
    assert ch.weights[(0, 0)] == 2


def test_spin_dimensions():
    for n in range(2, 6):
        b = AlgebraId("B", n)
        assert weyl_dimension(W(b, [0] * (n - 1) + [1])) == 2 ** n
        d = AlgebraId("D", n + 1)
        assert weyl_dimension(W(d, [0] * (n - 1) + [1, 0])) == 2 ** n
        assert weyl_dimension(W(d, [0] * n + [1])) == 2 ** n


def test_standard_module_weight_lists():
    # vector module of the even orthogonal algebra: 2n+2 weights, mult 1
    d4 = AlgebraId("D", 4)
    ws = all_weights(W(d4, [1, 0, 0, 0]))
    assert len(ws) == 8 and all(m == 1 for m in ws.values())
    # symplectic standard module
    c3 = AlgebraId("C", 3)
    ws = all_weights(W(c3, [1, 0, 0]))
    assert len(ws) == 6 and all(m == 1 for m in ws.values())


def test_weight_multiplicity_weyl_invariance():
    rng = random.Random(9)
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), G2):
        lam = W(aid, [1, 1])
        for f, m in all_weights(lam).items():
            for g in weyl_orbit_fund(aid, f):
                assert weight_multiplicity(lam, Weight.from_fundamental(aid, g)) == m
        assert weight_multiplicity(lam, lam) == 1


def test_character_matches_saturated_diagram_reference():
    # the dominant chain and the one orbit table against the saturated-diagram
    # recursion: same dominant multiplicities in the same order, same table
    from liefusion.verify import SWEEP_TYPES, weights_under_cap

    lams = [
        W(AlgebraId(s, n), f)
        for s, n in SWEEP_TYPES
        for _, f in weights_under_cap(AlgebraId(s, n), 256)
    ]
    f4, e6 = AlgebraId("F", 4), AlgebraId("E", 6)
    lams += [W(f4, [0, 0, 0, 1]), W(f4, [1, 0, 0, 0]),
             W(e6, [1, 0, 0, 0, 0, 0]), W(e6, [0, 1, 0, 0, 0, 0])]
    for lam in lams:
        ch = dominant_character(lam)
        mults, dim = ref_dominant_character(lam)
        assert list(dominant_part(ch).items()) == list(mults.items()), lam
        assert list(ch.weights.items()) == list(ref_all_weights(lam.algebra, mults).items()), lam
        assert sum(ch.weights.values()) == dim == weyl_dimension(lam)
        _assert_matches_string_walk(lam)


def _assert_matches_string_walk(lam):
    # the running string sums against the walk of every string to its end:
    # the same tables, in the same key order
    ch = dominant_character(lam)
    mults, weights = walk_dominant_character(lam)
    assert list(dominant_part(ch).items()) == list(mults.items()), lam
    assert list(ch.weights.items()) == list(weights.items()), lam


def test_running_string_sums_match_the_string_walk():
    # long alpha-strings: every A1 L(n) up to n = 400, and B2, C2 and G2
    # weights far from the walls
    lams = [W(AlgebraId("A", 1), [n]) for n in range(401)]
    for label, fs in (("B2", ([12, 0], [0, 24], [6, 6], [3, 11])),
                      ("C2", ([24, 0], [0, 12], [6, 6], [11, 3])),
                      ("G2", ([9, 0], [0, 6], [4, 3]))):
        lams += [W(AlgebraId.parse(label), f) for f in fs]
    for lam in lams:
        _assert_matches_string_walk(lam)


@settings(max_examples=60, deadline=None)
@given(dominant_weights())
def test_simple_reflections_preserve_the_weight_table(lam):
    ws = all_weights(lam)
    cartan = build_root_system(lam.algebra).cartan_matrix
    for i, row in enumerate(cartan):
        image = {tuple(a - f[i] * c for a, c in zip(f, row)): m for f, m in ws.items()}
        assert image == ws


def test_off_coset_multiplicity_zero():
    a1 = AlgebraId("A", 1)
    lam = W(a1, [2])
    assert weight_multiplicity(lam, W(a1, [1])) == 0


def test_character_dimension_cross_check_small():
    # brute cross-check against tensor powers: dims of L(v1)^{(x) 2} pieces
    lam = W(G2, [1, 0])
    from liefusion.tensor import tensor_decomposition

    dec = tensor_decomposition(lam, lam)
    assert sum(m * weyl_dimension(W(G2, list(k))) for k, m in dec.items()) == 49


def test_cap_errors(monkeypatch):
    from liefusion.tensor import tensor_decomposition

    a1 = AlgebraId("A", 1)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        full_character(W(a1, [600]))
    with pytest.raises(CapExceeded):
        realize_module(W(a1, [600]))
    # every module entry point refuses exactly the weights above LIEFUSION_CAP.
    # The cap is checked when a module is built, so these A5 weights are ones
    # no other test builds: a cached module would be returned as it is.
    monkeypatch.setenv("LIEFUSION_CAP", "15")
    a5 = AlgebraId("A", 5)
    zero = W(a5, [0] * 5)
    for f, dim in (([1, 0, 0, 0, 0], 6), ([0, 1, 0, 0, 0], 15), ([0, 0, 1, 0, 0], 20),
                   ([0, 0, 0, 0, 2], 21), ([1, 1, 0, 0, 0], 70)):
        lam = W(a5, f)
        assert weyl_dimension(lam) == dim
        calls = (lambda: full_character(lam), lambda: all_weights(lam),
                 lambda: realize_module(lam), lambda: tensor_decomposition(lam, zero))
        for call in calls:
            if dim > 15:
                with pytest.raises(CapExceeded, match="exceeds cap 15.*LIEFUSION_CAP"):
                    call()
            else:
                call()
        # Klimyk checks the cap on its first factor only, and sums over the
        # smaller one: the trivial first factor lets any second one through
        assert tensor_decomposition(zero, lam) == {tuple(f): 1}


def check_generator_relations(mod):
    aid = mod.algebra
    n = aid.rank
    rs = build_root_system(aid)
    a = rs.cartan_matrix
    es = [rational(mod.full_matrix("E", i)) for i in range(n)]
    fs = [rational(mod.full_matrix("F", i)) for i in range(n)]
    hs = [rational(mod.full_matrix("H", i)) for i in range(n)]
    g = gram_full(mod)

    def comm(x, y):
        xy = frac_matmul(x, y)
        yx = frac_matmul(y, x)
        return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]

    zero = zeros(mod.dim, mod.dim)
    for i in range(n):
        for j in range(n):
            assert comm(es[i], fs[j]) == (hs[i] if i == j else zero)
            assert comm(hs[i], es[j]) == [[a[j][i] * x for x in row] for row in es[j]]
            assert comm(hs[i], fs[j]) == [[-a[j][i] * x for x in row] for row in fs[j]]
        # contravariance: E_i and F_i are Gram adjoints
        assert frac_matmul(linalg.transpose(es[i]), g) == frac_matmul(g, fs[i])


@pytest.mark.parametrize(
    "aid,coords,dim",
    [
        (AlgebraId("A", 1), [1], 2),
        (AlgebraId("A", 1), [2], 3),
        (AlgebraId("A", 2), [1, 1], 8),
        (AlgebraId("B", 2), [0, 1], 4),
        (AlgebraId("B", 3), [0, 0, 1], 8),
        (AlgebraId("C", 2), [1, 0], 4),
        (AlgebraId("C", 3), [0, 1, 0], 14),
        (AlgebraId("D", 4), [0, 0, 1, 0], 8),
        (G2, [1, 0], 7),
        (G2, [0, 1], 14),
    ],
    ids=lambda v: str(v),
)
def test_realization_relations_exact(aid, coords, dim):
    mod = realize_module(W(aid, coords))
    assert mod.dim == dim
    check_generator_relations(mod)


def test_generator_relations_see_a_wrong_e_block():
    # every den of A1 L(2) is 1, so realize_module's own integrality check
    # cannot see a wrong E-block; the relation [E, F] = H does
    import copy

    mod = copy.deepcopy(realize_module(W(AlgebraId("A", 1), [2])))  # the cache stays clean
    assert mod.e_block[(0, (0,))] == ([[2]], 1)
    mod.e_block[(0, (0,))] = ([[3]], 1)
    with pytest.raises(AssertionError):
        check_generator_relations(mod)


def test_realization_gram_positive_definite_leading():
    mod = realize_module(W(AlgebraId("B", 2), [1, 1]))
    for f in mod.block_dim:
        g = mod.gram[f]
        # Gram of a weight block of a unitary module is nonsingular
        assert linalg.rank(g) == len(g)


def test_a1_realization_elementary():
    mod = realize_module(W(AlgebraId("A", 1), [1]))
    e = mod.full_matrix("E", 0)
    f = mod.full_matrix("F", 0)
    assert e == ([[0, 1], [0, 0]], 1)
    assert f == ([[0, 0], [1, 0]], 1)


def test_realization_json_export():
    mod = realize_module(W(AlgebraId("A", 1), [2]))
    data = json.loads(module_to_json(mod))
    assert data["dim"] == 3
    assert len(data["basis_weights"]) == 3
    assert data["generators"]["E"]


def test_hom_space_dimensions_match_tensor_rule():
    rng = random.Random(12)
    for aid in (AlgebraId("A", 2), AlgebraId("B", 2), G2):
        for _ in range(6):
            fs = [[rng.randint(0, 1) for _ in range(aid.rank)] for _ in range(3)]
            lam, mu, nu = (W(aid, f) for f in fs)
            expected = tensor_multiplicity(TensorQuery(lam, mu, nu))
            assert len(hom_space_basis(lam, mu, nu)) == expected


def test_hom_space_duality_pairing():
    # the trivial module appears exactly once, and only against the dual
    a2 = AlgebraId("A", 2)
    u, ub, z = W(a2, [1, 0]), W(a2, [0, 1]), W(a2, [0, 0])
    assert len(hom_space_basis(u, ub, z)) == 1
    assert len(hom_space_basis(u, u, z)) == 0
    assert len(hom_space_basis(z, u, u)) == 1
    b2 = AlgebraId("B", 2)
    sp = W(b2, [0, 1])
    assert dual_weight(sp) == sp
    assert len(hom_space_basis(sp, sp, W(b2, [0, 0]))) == 1


INTERTWINER_TRIPLES = (
    (G2, [1, 0], [1, 0], [1, 0], 1),
    (AlgebraId("A", 2), [1, 1], [1, 1], [1, 1], 2),
    (AlgebraId("B", 2), [1, 0], [0, 1], [0, 1], 1),
    (AlgebraId("C", 2), [0, 1], [1, 0], [1, 0], 1),
)


def test_intertwiner_commutes_with_action():
    # T (X v) = X (T v) for X = E_i, F_i on every pair basis vector v, for
    # every map of each hom space; the action below is written out here so
    # that it stays independent of highmod's own
    for aid, f_lam, f_mu, f_nu, dim in INTERTWINER_TRIPLES:
        ts = hom_space_basis(W(aid, f_lam), W(aid, f_mu), W(aid, f_nu))
        assert len(ts) == dim, str(aid)
        for t in ts:
            _check_intertwines(t)


def _check_intertwines(t):
    cartan = build_root_system(t.mlam.algebra).cartan_matrix
    n = t.mlam.algebra.rank

    def tensor_apply(op, i, vec, m1, m2):
        step = -1 if op == "F" else 1
        out = {}
        for (f1, f2, a, b), c in vec.items():
            blk = (m1.f_block if op == "F" else m1.e_block).get((i, f1))
            if blk is not None:
                blk = rational(blk)
                f1d = tuple(f1[t_] + step * cartan[i][t_] for t_ in range(n))
                for r in range(m1.block_dim[f1d]):
                    if blk[r][a]:
                        k = (f1d, f2, r, b)
                        out[k] = out.get(k, Fraction(0)) + c * blk[r][a]
            blk = (m2.f_block if op == "F" else m2.e_block).get((i, f2))
            if blk is not None:
                blk = rational(blk)
                f2d = tuple(f2[t_] + step * cartan[i][t_] for t_ in range(n))
                for r in range(m2.block_dim[f2d]):
                    if blk[r][b]:
                        k = (f1, f2d, a, r)
                        out[k] = out.get(k, Fraction(0)) + c * blk[r][b]
        return {k: v for k, v in out.items() if v}

    def mod_apply(op, i, vec, mod):
        step = -1 if op == "F" else 1
        out = {}
        for (f, k), c in vec.items():
            blk = (mod.f_block if op == "F" else mod.e_block).get((i, f))
            if blk is None:
                continue
            blk = rational(blk)
            fd = tuple(f[t_] + step * cartan[i][t_] for t_ in range(n))
            for r in range(mod.block_dim[fd]):
                if blk[r][k]:
                    out[(fd, r)] = out.get((fd, r), Fraction(0)) + c * blk[r][k]
        return {k: v for k, v in out.items() if v}

    assert t.columns
    for f1 in t.mlam.block_dim:
        for f2 in t.mmu.block_dim:
            for a in range(t.mlam.block_dim[f1]):
                for b in range(t.mmu.block_dim[f2]):
                    vec = {(f1, f2, a, b): Fraction(1)}
                    for op in ("E", "F"):
                        for i in range(n):
                            lhs = intertwiner_apply(
                                t, tensor_apply(op, i, vec, t.mlam, t.mmu))
                            rhs = mod_apply(op, i, intertwiner_apply(t, vec), t.mnu)
                            assert lhs == rhs, (str(t.mlam.algebra), vec, op, i)


def test_trivial_module_character():
    zero = W(G2, [0, 0])
    ch = full_character(zero)
    assert sum(ch.weights.values()) == 1 and ch.weights == {(0, 0): 1}


def _reference_realize(lam: Weight) -> ModuleRealization:
    """The per-candidate builder: one Fraction Gram entry at a time, one
    linear solve per non-pivot candidate."""
    zero, one = Fraction(0), Fraction(1)
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix
    weights = all_weights(lam)
    inv = rational(linalg.inverse(cartan))

    def depth(f):
        rc = [sum((f[k] * inv[k][i] for k in range(n)), zero) for i in range(n)]
        d = sum((lam.coords[i] - rc[i] for i in range(n)), zero)
        assert d.denominator == 1
        return int(d)

    by_depth = {}
    for f in weights:
        by_depth.setdefault(depth(f), []).append(f)

    mod = ModuleRealization(lam)
    top = lam.fundamental
    mod.block_dim[top] = 1
    mod.gram[top] = [[one]]
    mod.dim = 1

    def up(f, i):
        return tuple(f[k] + cartan[i][k] for k in range(n))

    def f_of_e(i, j, src_j, b2):
        # F_j (E_i b2) for b2 in block src_j, in block src_j + a_i - a_j, or None
        # when E_i kills the block
        eikey = (i, src_j)
        if eikey not in mod.e_block:
            return None
        upsrc = up(src_j, i)
        evec = [mod.e_block[eikey][r][b2] for r in range(mod.block_dim[upsrc])]
        fkey = (j, upsrc)
        if fkey not in mod.f_block:
            return None
        fb = mod.f_block[fkey]
        return [sum((fb[r][k] * evec[k] for k in range(len(evec))), zero)
                for r in range(len(fb))]

    for d in sorted(by_depth):
        if d == 0:
            continue
        for f in sorted(by_depth[d]):
            cands = []
            for i in range(n):
                src = up(f, i)
                if src in mod.block_dim:
                    cands.extend((i, b) for b in range(mod.block_dim[src]))
            target_rank = weights[f]
            nc = len(cands)
            g = zeros(nc, nc)
            for a, (i, b) in enumerate(cands):
                src_i = up(f, i)
                for c, (j, b2) in enumerate(cands):
                    if c < a:
                        g[a][c] = g[c][a]
                        continue
                    val = zero
                    w = f_of_e(i, j, up(f, j), b2)
                    if w is not None:
                        gsrc = mod.gram[src_i]
                        val += sum((gsrc[b][k] * w[k] for k in range(len(w))), zero)
                    if i == j:
                        val += Fraction(src_i[i]) * mod.gram[src_i][b][b2]
                    g[a][c] = val
            red, pivots = rref_view(g)
            assert len(pivots) == target_rank
            chosen = pivots
            mod.block_dim[f] = target_rank
            gram_f = [[g[a][b] for b in chosen] for a in chosen]
            mod.gram[f] = gram_f
            for k, ci in enumerate(chosen):
                mod.parent[(f, k)] = cands[ci]
            mod.dim += target_rank
            expansions = []
            for c in range(nc):
                if c in chosen:
                    x = [one if chosen[k] == c else zero for k in range(target_rank)]
                else:
                    x = rational_vector(linalg.solve(gram_f, [g[ci][c] for ci in chosen]))
                expansions.append(x)
            for i in range(n):
                src = up(f, i)
                if src not in mod.block_dim:
                    continue
                blk = zeros(target_rank, mod.block_dim[src])
                for b in range(mod.block_dim[src]):
                    ci = cands.index((i, b))
                    for r in range(target_rank):
                        blk[r][b] = expansions[ci][r]
                mod.f_block[(i, src)] = blk
            for i in range(n):
                tgt = up(f, i)
                if tgt not in mod.block_dim:
                    continue
                blk = zeros(mod.block_dim[tgt], target_rank)
                for k in range(target_rank):
                    j, b2 = mod.parent[(f, k)]
                    col = f_of_e(i, j, up(f, j), b2) or [zero] * mod.block_dim[tgt]
                    if i == j:
                        col[b2] += Fraction(tgt[i])
                    for r in range(mod.block_dim[tgt]):
                        blk[r][k] = col[r]
                mod.e_block[(i, f)] = blk
    return mod


def test_realize_module_matches_reference():
    from liefusion.verify import SWEEP_TYPES, weights_under_cap

    cap = 32
    lams = [
        W(AlgebraId(s, n), f)
        for s, n in SWEEP_TYPES
        for _, f in weights_under_cap(AlgebraId(s, n), cap)
    ]
    lams.append(W(AlgebraId("F", 4), [0, 0, 0, 1]))
    # modules with many multiplicity-one weights of three or more candidates,
    # where the build takes its rank-one step on a 3x3 or larger Gram
    wide = [W(AlgebraId.parse(label), f) for label, f in
            (("A3", [1, 0, 2]), ("B3", [1, 0, 1]), ("D4", [1, 0, 1, 0]))]
    for lam in wide:
        weights, counts = all_weights(lam), _candidate_counts(lam)
        assert sum(weights[f] == 1 and nc >= 3 for f, nc in counts.items()) >= 10
    for lam in lams + wide:
        _assert_matches_reference(lam)


def _candidate_counts(lam):
    """weight f -> the number of candidates F_i b at f in L(lam)."""
    mod = realize_module(lam)
    cartan = build_root_system(lam.algebra).cartan_matrix
    return {f: sum(mod.block_dim.get(tuple(map(sum, zip(f, row))), 0) for row in cartan)
            for f in list(mod.block_dim)[1:]}


def test_rank_one_weights_run_no_elimination(monkeypatch):
    # linalg.rref runs once per weight of two or more candidates and a
    # multiplicity of two or more; a rank-one weight runs none
    import liefusion.highmod as h

    real = h.linalg.rref
    for label, f in (("A3", [1, 0, 2]), ("B3", [1, 0, 1]), ("G2", [1, 1])):
        lam = W(AlgebraId.parse(label), f)
        weights, counts = all_weights(lam), _candidate_counts(lam)
        calls = []
        monkeypatch.setattr(h.linalg, "rref", lambda g: calls.append(g) or real(g))
        h.realize_module.__wrapped__(lam)
        monkeypatch.undo()
        assert len(calls) == sum(weights[f] >= 2 and nc >= 2 for f, nc in counts.items())
        assert len(calls) < sum(nc >= 2 for nc in counts.values())


def _assert_matches_reference(lam):
    got, want = realize_module(lam), _reference_realize(lam)
    # the blocks in the same build order, and the same fields
    assert list(got.block_dim) == list(want.block_dim), str(lam)
    for field in ("block_dim", "gram", "parent", "dim"):
        assert getattr(got, field) == getattr(want, field), (str(lam), field)
    # the generator blocks are (numerators, den) pairs: entry by entry,
    # numerator / den is the reference's Fraction
    for field in ("f_block", "e_block"):
        view = {key: rational(pair) for key, pair in getattr(got, field).items()}
        assert view == getattr(want, field), (str(lam), field)


def _build_steps(lam):
    """weight f -> the step the build takes at f, from its source dims:
    "scalar" (one source, of dimension 1), "ones" (two or more sources, all
    of dimension 1) or "matrix" (a source of dimension 2 or more)."""
    mod = realize_module(lam)
    cartan = build_root_system(lam.algebra).cartan_matrix
    steps = {}
    for f in list(mod.block_dim)[1:]:
        dims = [mod.block_dim[src] for src in (tuple(map(sum, zip(f, row))) for row in cartan)
                if src in mod.block_dim]
        steps[f] = "scalar" if dims == [1] else "ones" if set(dims) == {1} else "matrix"
    return steps


def test_generator_relations_hold_on_every_small_sweep_module():
    # the relations and contravariance on every SWEEP_TYPES module up to
    # dimension 24, where the build takes all three steps. In A1 every den
    # is 1, so realize_module's own checks cannot see a wrong E-block there
    from liefusion.verify import SWEEP_TYPES, weights_under_cap

    lams = [W(AlgebraId(s, n), f) for s, n in SWEEP_TYPES
            for _, f in weights_under_cap(AlgebraId(s, n), 24)]
    assert len(lams) == 82
    assert {s for lam in lams for s in _build_steps(lam).values()} == {"scalar", "ones", "matrix"}
    for lam in lams:
        check_generator_relations(realize_module(lam))


@pytest.mark.parametrize("label, f", [
    ("A2", [1, 1]), ("B2", [1, 1]), ("G2", [0, 1]), ("D4", [0, 1, 0, 0]),
])
def test_one_dimensional_sources_match_reference(label, f):
    # weights whose two or more sources are all one-dimensional carry every
    # block M_ij as one number; the blocks, Grams and parents are still the
    # per-candidate reference's
    lam = W(AlgebraId.parse(label), f)
    steps = _build_steps(lam)
    assert "ones" in steps.values() and "scalar" in steps.values()
    _assert_matches_reference(lam)


@pytest.mark.parametrize("label, f, weight, step, message", [
    ("A2", [1, 1], (0, 0), "ones",
     "Gram rank 2 != Freudenthal multiplicity 3 at weight (0, 0) of L((1,1)) (2 candidates)"),
    ("D4", [0, 1, 0, 0], (-1, 1, -1, 1), "ones",
     "Gram rank 1 != Freudenthal multiplicity 2 at weight (-1, 1, -1, 1) of L((0,1,0,0)) "
     "(2 candidates)"),
    ("G2", [0, 1], (1, 0), "scalar",
     "Gram rank 1 != Freudenthal multiplicity 2 at weight (1, 0) of L((0,1)) (1 candidates)"),
])
def test_a_raised_multiplicity_is_seen_on_the_one_dimensional_steps(
        monkeypatch, label, f, weight, step, message):
    # one weight's multiplicity raised by 1: the build stops at that weight
    # and reports the true Gram rank
    import liefusion.highmod as h
    from liefusion.errors import InvariantError

    lam = W(AlgebraId.parse(label), f)
    assert _build_steps(lam)[weight] == step
    true_weights = h.all_weights
    monkeypatch.setattr(h, "all_weights", lambda mu: {
        **true_weights(mu), weight: true_weights(mu)[weight] + 1})
    # __wrapped__ builds past the cache, so no cached module is touched
    with pytest.raises(InvariantError) as exc:
        h.realize_module.__wrapped__(lam)
    assert str(exc.value) == message


def test_gram_integrality_is_checked_on_one_dimensional_sources(monkeypatch):
    # the F-block into (-3, 2) along alpha_2 of the A2 module L(2, 1), raised
    # by one as it is stored, reaches the weight (-1, -2), whose two sources
    # are one-dimensional: its Gram entry no longer divides back to an integer
    import liefusion.highmod as h
    from liefusion.errors import InvariantError

    lam = W(AlgebraId("A", 2), [2, 1])
    assert _build_steps(lam)[(-1, -2)] == "ones"
    ns = {}
    exec(PERTURBED, ns)
    monkeypatch.setattr(h, "ModuleRealization", ns["perturbed"]("f_block", (1, (-3, 2))))
    with pytest.raises(InvariantError, match=r"candidate Gram block of source \(-2, 0\) "
                       r"at weight \(-1, -2\) of L\(\(2,1\)\) is not integral"):
        h.realize_module.__wrapped__(lam)


@pytest.mark.parametrize("label, f, step", [("A1", [1], "scalar"), ("A2", [1, 1], "ones")])
def test_weyl_dimension_check_follows_each_step(monkeypatch, label, f, step):
    # the lowest weight left out of the weight table: the build ends one
    # basis vector short, whichever step the lowest weight takes
    import liefusion.highmod as h
    from liefusion.errors import InvariantError

    lam = W(AlgebraId.parse(label), f)
    lowest = list(realize_module(lam).block_dim)[-1]
    assert _build_steps(lam)[lowest] == step
    true_weights = h.all_weights
    monkeypatch.setattr(h, "all_weights", lambda mu: {
        w: m for w, m in true_weights(mu).items() if w != lowest})
    dim = weyl_dimension(lam)
    with pytest.raises(InvariantError) as exc:
        h.realize_module.__wrapped__(lam)
    assert str(exc.value) == f"realized dimension {dim - 1} of L({lam}) != Weyl formula {dim}"


@settings(max_examples=60, deadline=None)
@given(dominant_weights())
def test_realized_blocks_are_integral_and_canonical(lam):
    # Gram blocks hold ints; every generator block is (numerators, den) in
    # lowest terms, den > 0; the rational view is the reference realization
    mod = realize_module(lam)
    assert all(type(x) is int for g in mod.gram.values() for row in g for x in row)
    for blocks in (mod.f_block, mod.e_block):
        for nums, den in blocks.values():
            entries = [x for row in nums for x in row]
            assert type(den) is int and den > 0
            assert all(type(x) is int for x in entries)
            assert math.gcd(den, *entries) == 1
    _assert_matches_reference(lam)


def _fraction_weyl_dimension(lam):
    rs = build_root_system(lam.algebra)
    lr = lam + rs.weyl_vector
    num = den = Fraction(1)
    for alpha in rs.positive_roots:
        num *= inner_product(lr, alpha)
        den *= inner_product(rs.weyl_vector, alpha)
    return num / den


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_weyl_dimension_matches_fraction_formula(label):
    import itertools

    aid = AlgebraId.parse(label)
    for f in itertools.product(range(3), repeat=aid.rank):
        if sum(f) > 3:
            continue
        lam = W(aid, f)
        assert weyl_dimension(lam) == _fraction_weyl_dimension(lam), f


def test_gram_rank_invariant_survives_optimize():
    # a corrupted multiplicity table must stop the build with a named error,
    # also under python -O, and the CLI must map it to exit code 1
    import os
    import subprocess
    import sys

    script = """
import liefusion.highmod as h
from liefusion.cli import main
from liefusion.errors import InvariantError
from liefusion.rootsys import AlgebraId, Weight

true_weights = h.all_weights

def bumped(lam):
    ws = dict(true_weights(lam))
    ws[tuple([0] * lam.algebra.rank)] += 1
    return ws

h.all_weights = bumped
try:
    h.realize_module(Weight.from_fundamental(AlgebraId("B", 2), [0, 2]))
except InvariantError as exc:
    print("raised:", exc)
h.realize_module.cache_clear()
print("exit:", main(["tensor", "--algebra", "B2", "--charge", "0,2",
                     "--source", "0,1", "--target", "0,1"]))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "raised: Gram rank 2 != Freudenthal multiplicity 3 at weight (0, 0)" in out.stdout
    assert "exit: 1" in out.stdout
    assert "verification failed: Gram rank" in out.stderr


# perturbed(field, key) is a realization whose generator block `key` in
# `field` has its first numerator raised by one as it is stored. With the
# E-block out of weight (-3, 2) along alpha_1 so raised, the 27-dim G2 module
# L(2, 0) reads that block into a later candidate Gram block, which then no
# longer divides back to integers.
PERTURBED = '''
import liefusion.highmod as h

def perturbed(field, key):
    class Bumped(dict):
        def __setitem__(self, k, pair):
            nums, den = pair
            if k == key:
                nums = [row[:] for row in nums]
                nums[0][0] += 1
            super().__setitem__(k, (nums, den))

    class PerturbedRealization(h.ModuleRealization):
        def __init__(self, lam):
            super().__init__(lam)
            setattr(self, field, Bumped())

    return PerturbedRealization
'''

# Both build invariants at one-candidate weights, where the build takes its
# scalar step. A raised E-block numerator does not reach a one-candidate
# weight's integrality check in any module of A1, B2, C2 or G2 up to dimension
# 80 (every den of A1 is 1; elsewhere the F numerator or the source Gram
# absorbs the den). So the first control raises the F-block into (-3, 0) along
# alpha_2, which the one-candidate weight (0, -2) of the 77-dim G2 module
# L(0, 2) reads: M = 21 / 10, against a source Gram that 5 does not divide.
# The second bumps the multiplicity of the one-candidate weight -1 of the A1
# module L(1) to 2.
SCALAR_CONTROLS = PERTURBED + '''
from liefusion.errors import InvariantError
from liefusion.rootsys import AlgebraId, Weight

def scalar_controls(build):
    real, true_weights = h.ModuleRealization, h.all_weights
    try:
        h.ModuleRealization = perturbed("f_block", (1, (-6, 2)))
        build(Weight.from_fundamental(AlgebraId("G", 2), [0, 2]))
    except InvariantError as exc:
        print("raised:", exc)
    finally:
        h.ModuleRealization = real
    try:
        h.all_weights = lambda lam: {**true_weights(lam), (-1,): 2}
        build(Weight.from_fundamental(AlgebraId("A", 1), [1]))
    except InvariantError as exc:
        print("raised:", exc)
    finally:
        h.all_weights = true_weights
'''

# The rank-one step at a two-candidate weight: claimed multiplicity 1 at the
# zero weight of the A2 module L(1, 1), where the true multiplicity is 2. The
# Gram's minors do not vanish, so the build falls through to the elimination,
# which reports the true rank.
RANK_ONE_CONTROL = """
def rank_one_control(build):
    true_weights = h.all_weights
    try:
        h.all_weights = lambda lam: {**true_weights(lam), (0, 0): 1}
        build(Weight.from_fundamental(AlgebraId("A", 2), [1, 1]))
    except InvariantError as exc:
        print("raised:", exc)
    finally:
        h.all_weights = true_weights
"""

RANK_ONE_RAISED = ("raised: Gram rank 2 != Freudenthal multiplicity 1 at weight (0, 0) "
                   "of L((1,1)) (2 candidates)")

SCALAR_RAISED = [
    "raised: candidate Gram block of source (-3, 0) at weight (0, -2) of L((0,2)) "
    "is not integral",
    "raised: Gram rank 1 != Freudenthal multiplicity 2 at weight (-1,) of L((1)) "
    "(1 candidates)",
]


def test_gram_integrality_is_a_named_invariant(monkeypatch):
    import liefusion.highmod as h
    from liefusion.errors import InvariantError

    ns = {}
    exec(PERTURBED, ns)
    monkeypatch.setattr(h, "ModuleRealization", ns["perturbed"]("e_block", (0, (-3, 2))))
    # __wrapped__ builds past the cache, so no cached module is touched
    with pytest.raises(InvariantError, match=r"candidate Gram block of source \(0, 0\) "
                       r"at weight \(3, -2\) of L\(\(2,0\)\) is not integral"):
        h.realize_module.__wrapped__(W(G2, [2, 0]))


def test_scalar_step_invariants_are_named(capsys):
    # both build invariants fire at a one-candidate weight; __wrapped__ builds
    # past the cache, so no cached module is touched
    import liefusion.highmod as h

    ns = {}
    exec(SCALAR_CONTROLS, ns)
    ns["scalar_controls"](h.realize_module.__wrapped__)
    assert capsys.readouterr().out.splitlines() == SCALAR_RAISED


def test_rank_one_step_sees_a_wrong_multiplicity(capsys):
    import liefusion.highmod as h

    ns = {}
    exec(SCALAR_CONTROLS + RANK_ONE_CONTROL, ns)
    ns["rank_one_control"](h.realize_module.__wrapped__)
    assert capsys.readouterr().out.splitlines() == [RANK_ONE_RAISED]


def test_gram_invariants_survive_optimize():
    # both build invariants, Gram integrality and Gram rank against the
    # Freudenthal multiplicity, raise a named error under python -O
    import os
    import subprocess
    import sys

    script = SCALAR_CONTROLS + RANK_ONE_CONTROL + """
real = h.ModuleRealization
h.ModuleRealization = perturbed("e_block", (0, (-3, 2)))
try:
    h.realize_module(Weight.from_fundamental(AlgebraId("G", 2), [2, 0]))
except InvariantError as exc:
    print("raised:", exc)
h.ModuleRealization = real

true_weights = h.all_weights

def bumped(lam):
    ws = dict(true_weights(lam))
    ws[tuple([0] * lam.algebra.rank)] += 1
    return ws

h.all_weights = bumped
try:
    h.realize_module(Weight.from_fundamental(AlgebraId("B", 2), [0, 2]))
except InvariantError as exc:
    print("raised:", exc)
h.all_weights = true_weights
scalar_controls(h.realize_module.__wrapped__)
rank_one_control(h.realize_module.__wrapped__)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised: candidate Gram block of source (0, 0) at weight (3, -2) of L((2,0)) "
        "is not integral",
        "raised: Gram rank 2 != Freudenthal multiplicity 3 at weight (0, 0) of L((0,2)) "
        "(2 candidates)",
        *SCALAR_RAISED,
        RANK_ONE_RAISED,
    ]
