import random
from fractions import Fraction

import pytest

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
    weyl_orbit,
)
from liefusion.tensor import TensorQuery, tensor_multiplicity

G2 = AlgebraId("G", 2)


def W(aid, coords):
    return Weight.from_fundamental(aid, coords)


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
    assert ch.dim == 14
    assert ch.mults[(0, 0)] == 2


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
            for g in weyl_orbit(Weight.from_fundamental(aid, f)):
                assert weight_multiplicity(lam, Weight.from_fundamental(aid, g)) == m
        assert weight_multiplicity(lam, lam) == 1


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


def test_cap_errors():
    a1 = AlgebraId("A", 1)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        full_character(W(a1, [600]))
    with pytest.raises(CapExceeded):
        realize_module(W(a1, [600]))


def check_generator_relations(mod):
    aid = mod.algebra
    n = aid.rank
    rs = build_root_system(aid)
    a = rs.cartan_matrix
    es = [mod.full_matrix("E", i) for i in range(n)]
    fs = [mod.full_matrix("F", i) for i in range(n)]
    hs = [mod.full_matrix("H", i) for i in range(n)]
    g = mod.gram_full()

    def comm(x, y):
        xy = linalg.matmul(x, y)
        yx = linalg.matmul(y, x)
        return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]

    zero = linalg.zeros(mod.dim, mod.dim)
    for i in range(n):
        for j in range(n):
            assert comm(es[i], fs[j]) == (hs[i] if i == j else zero)
            assert comm(hs[i], es[j]) == [[a[j][i] * x for x in row] for row in es[j]]
            assert comm(hs[i], fs[j]) == [[-a[j][i] * x for x in row] for row in fs[j]]
        # contravariance: E_i and F_i are Gram adjoints
        assert linalg.matmul(linalg.transpose(es[i]), g) == linalg.matmul(g, fs[i])


@pytest.mark.parametrize(
    "aid,coords,dim",
    [
        (AlgebraId("A", 1), [1], 2),
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


def test_realization_gram_positive_definite_leading():
    mod = realize_module(W(AlgebraId("B", 2), [1, 1]))
    for f in mod.blocks:
        g = mod.gram[f]
        # Gram of a weight block of a unitary module is nonsingular
        assert linalg.rank(g) == len(g)


def test_a1_realization_elementary():
    mod = realize_module(W(AlgebraId("A", 1), [1]))
    e = mod.full_matrix("E", 0)
    f = mod.full_matrix("F", 0)
    assert e == [[0, 1], [0, 0]]
    assert f == [[0, 0], [1, 0]]


def test_realization_json_export():
    import json

    mod = realize_module(W(AlgebraId("A", 1), [2]))
    data = json.loads(mod.to_json())
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


def test_intertwiner_commutes_with_action():
    ts = hom_space_basis(W(G2, [1, 0]), W(G2, [1, 0]), W(G2, [1, 0]))
    assert len(ts) == 1
    t = ts[0]
    rs = build_root_system(G2)
    cartan = rs.cartan_matrix
    n = 2

    def tensor_apply(op, i, vec, m1, m2):
        step = -1 if op == "F" else 1
        out = {}
        for (f1, f2, a, b), c in vec.items():
            blk = (m1.f_block if op == "F" else m1.e_block).get((i, f1))
            if blk is not None:
                f1d = tuple(f1[t_] + step * cartan[i][t_] for t_ in range(n))
                for r in range(m1.block_dim[f1d]):
                    if blk[r][a]:
                        k = (f1d, f2, r, b)
                        out[k] = out.get(k, Fraction(0)) + c * blk[r][a]
            blk = (m2.f_block if op == "F" else m2.e_block).get((i, f2))
            if blk is not None:
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
            fd = tuple(f[t_] + step * cartan[i][t_] for t_ in range(n))
            for r in range(mod.block_dim[fd]):
                if blk[r][k]:
                    out[(fd, r)] = out.get((fd, r), Fraction(0)) + c * blk[r][k]
        return {k: v for k, v in out.items() if v}

    for f1 in t.mlam.blocks:
        for f2 in t.mmu.blocks:
            vec = {(f1, f2, 0, 0): Fraction(1)}
            for op in ("E", "F"):
                for i in range(2):
                    lhs = t.apply(tensor_apply(op, i, vec, t.mlam, t.mmu))
                    rhs = mod_apply(op, i, t.apply(vec), t.mnu)
                    assert lhs == rhs


def test_trivial_module_character():
    zero = W(G2, [0, 0])
    ch = full_character(zero)
    assert ch.dim == 1 and ch.mults == {(0, 0): 1}


def _reference_realize(lam: Weight, cap: int) -> ModuleRealization:
    """The per-candidate builder: one Fraction Gram entry at a time, one
    linear solve per non-pivot candidate."""
    zero, one = Fraction(0), Fraction(1)
    aid = lam.algebra
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix
    weights = all_weights(lam, cap)
    inv = rs._cartan_inv

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
    mod.blocks.append(top)
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
            g = linalg.zeros(nc, nc)
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
            red, pivots = linalg.rref(g)
            assert len(pivots) == target_rank
            chosen = pivots
            mod.blocks.append(f)
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
                    x = linalg.solve(gram_f, [g[ci][c] for ci in chosen])
                expansions.append(x)
            for i in range(n):
                src = up(f, i)
                if src not in mod.block_dim:
                    continue
                blk = linalg.zeros(target_rank, mod.block_dim[src])
                for b in range(mod.block_dim[src]):
                    ci = cands.index((i, b))
                    for r in range(target_rank):
                        blk[r][b] = expansions[ci][r]
                mod.f_block[(i, src)] = blk
            for i in range(n):
                tgt = up(f, i)
                if tgt not in mod.block_dim:
                    continue
                blk = linalg.zeros(mod.block_dim[tgt], target_rank)
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
    for lam in lams:
        got, want = realize_module(lam, cap), _reference_realize(lam, cap)
        for field in ("blocks", "block_dim", "gram", "f_block", "e_block", "parent", "dim"):
            assert getattr(got, field) == getattr(want, field), (str(lam), field)


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

def bumped(lam, cap=None):
    ws = dict(true_weights(lam, cap))
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
