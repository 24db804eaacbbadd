"""Cross-route oracles and report invariants."""
import itertools
from fractions import Fraction

import pytest

from liefusion import linalg
from liefusion.highmod import dominant_character, weight_multiplicity, weyl_dimension
from liefusion.rootsys import AlgebraId, Weight, build_root_system
from liefusion.verify import VerificationReport, verify_e8, verify_full
from rational_view import rational


def weyl_group_elements(aid):
    """All Weyl elements as (matrix on fundamental coords, sign)."""
    rs = build_root_system(aid)
    n = aid.rank
    cartan = rs.cartan_matrix

    def reflect(f, j):
        return tuple(f[k] - f[j] * cartan[j][k] for k in range(n))

    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        new = []
        for m, in [(m,) for m in frontier]:
            for j in range(n):
                m2 = tuple(reflect(row, j) for row in m)
                if m2 not in seen:
                    seen[m2] = -seen[m]
                    new.append(m2)
        frontier = new
    return seen


def kostant_partition_function(aid):
    """P(v): number of ways to write v over the positive roots."""
    rs = build_root_system(aid)
    roots = [tuple(int(c) for c in r.coords) for r in rs.positive_roots]
    cache = {}

    def p(v, idx=0):
        if all(x == 0 for x in v):
            return 1
        if idx == len(roots):
            return 0
        key = (v, idx)
        if key in cache:
            return cache[key]
        total = 0
        r = roots[idx]
        cur = v
        while all(x >= 0 for x in cur):
            total += p(cur, idx + 1)
            cur = tuple(a - b for a, b in zip(cur, r))
        cache[key] = total
        return total

    return p


def brute_multiplicity(aid, lam, mu, weyl, pfun):
    """Alternating sum over the Weyl group with the partition function."""
    rs = build_root_system(aid)
    n = aid.rank
    inv = rational(linalg.inverse(rs.cartan_matrix))
    rho = tuple(1 for _ in range(n))
    lam_rho = tuple(int(a) + 1 for a in lam.fundamental)
    mu_rho = tuple(Fraction(a) + 1 for a in mu.fundamental)
    total = 0
    for m, sign in weyl.items():
        img = tuple(
            sum(lam_rho[i] * m[i][j] for i in range(n)) for j in range(n)
        )
        diff_f = tuple(a - b for a, b in zip(img, mu_rho))
        # convert to root coordinates; need nonnegative integers
        v = []
        ok = True
        for i in range(n):
            c = sum(diff_f[k] * inv[k][i] for k in range(n))
            if c < 0 or Fraction(c).denominator != 1:
                ok = False
                break
            v.append(int(c))
        if ok:
            total += sign * pfun(tuple(v))
    return total


def test_characters_match_brute_force_oracle():
    cases = [
        (AlgebraId("A", 2), ([1, 1], [2, 1], [0, 3])),
        (AlgebraId("B", 2), ([1, 0], [0, 1], [1, 1], [2, 0])),
        (AlgebraId("C", 2), ([1, 0], [0, 1], [1, 1])),
        (AlgebraId("G", 2), ([1, 0], [0, 1], [2, 0])),
        (AlgebraId("A", 3), ([1, 0, 1], [0, 2, 0])),
        (AlgebraId("B", 3), ([0, 0, 1], [1, 0, 0])),
        (AlgebraId("D", 4), ([1, 0, 0, 0],)),
    ]
    for aid, weights in cases:
        weyl = weyl_group_elements(aid)
        pfun = kostant_partition_function(aid)
        cartan = build_root_system(aid).cartan_matrix
        for coords in weights:
            lam = Weight.from_fundamental(aid, coords)
            if weyl_dimension(lam) > 64:
                continue
            char = dominant_character(lam)
            assert char.mults == {f: m for f, m in char.weights.items() if min(f) >= 0}
            # every entry of the table, dominant or not
            for f, m in char.weights.items():
                mu = Weight.from_fundamental(aid, f)
                assert brute_multiplicity(aid, lam, mu, weyl, pfun) == m
            # weights outside the table give zero: one simple root above a
            # weight of the table, and zero when it is absent
            outside = {
                tuple(a + c for a, c in zip(f, row))
                for f in char.weights for row in cartan
            } | {(0,) * aid.rank}
            for f in outside - char.weights.keys():
                mu = Weight.from_fundamental(aid, f)
                assert weight_multiplicity(lam, mu) == 0
                assert brute_multiplicity(aid, lam, mu, weyl, pfun) == 0


def test_report_invariants():
    rep = verify_e8(seed=7)
    assert rep.passed
    # each claim id appears once and maps to exactly one anchor
    ids = [r.claim_id for r in rep.results]
    assert len(ids) == len(set(ids))
    data = rep.as_dict()
    assert data["schema"] == "liefusion/1"


def test_reduced_full_suite_deterministic():
    import json
    import pathlib

    kwargs = dict(seed=11, cap=16, cutoffs=(3, 4), levels=(1,))
    a = verify_full(**kwargs).to_json()
    b = verify_full(**kwargs).to_json()
    assert a == b
    # byte for byte the recorded report of this reduced suite
    golden = pathlib.Path(__file__).with_name("reduced_suite_seed11.json")
    assert a == golden.read_text()

    data = json.loads(a)
    assumed = [r for r in data["results"] if r["status"] == "assumed"]
    assert len(assumed) == 1
    # at cutoffs 3/4 the order-1 energy probe's norms still grow between the
    # two cutoffs, so its trend claim FAILs; it is the only failing claim
    failed = [r["claim"] for r in data["results"] if r["status"] == "fail"]
    assert failed == ["energy-bound-order1"]
    assert data["passed"] is False


def test_negative_cutoff_is_refused_before_any_check(monkeypatch):
    import liefusion.verify as verify

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_e8_construction", no_check)
    for cutoffs in ((4, -3), ()):
        with pytest.raises(ValueError, match=r"the probe needs cutoffs >= 0"):
            verify_full(cap=16, cutoffs=cutoffs, levels=(1,))


def test_no_assert_guards_an_invariant():
    # `python -O` strips assert statements, so every invariant in the package
    # raises a named error instead; AssertionError is not one
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "src" / "liefusion"
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(list(pkg.glob("*.py"))) > 10
    assert offenders == []


# -- negative controls: the three-route check must see a broken route --------


def _tensor_claim(cap=16):
    from liefusion.verify import check_tensor_triple_agreement

    report = VerificationReport("t")
    check_tensor_triple_agreement(report, cap)
    (claim,) = report.results
    return claim


def test_tensor_agreement_sees_an_oracle_off_by_one(monkeypatch):
    import liefusion.verify as verify

    real = verify.tensor_decomposition
    b2 = AlgebraId("B", 2)

    def off_by_one(lam, mu):
        dec = dict(real(lam, mu))  # a copy: the oracle's cache stays clean
        if (lam.algebra, lam.fundamental, mu.fundamental) == (b2, (0, 1), (0, 1)):
            dec[(0, 0)] += 1
        return dec

    assert _tensor_claim().status == "pass"
    monkeypatch.setattr(verify, "tensor_decomposition", off_by_one)
    claim = _tensor_claim()
    assert claim.status == "fail"
    assert "first: ('B2', (0, 1), (0, 1), (0, 0), 'rank', 2, 1)" in claim.detail


def test_tensor_agreement_sees_a_perturbed_f_block(monkeypatch):
    import copy

    import liefusion.verify as verify

    real = verify.realize_module
    a1 = AlgebraId("A", 1)

    def perturbed(lam):
        mod = real(lam)
        if (lam.algebra, lam.fundamental) != (a1, (2,)):
            return mod
        mod = copy.deepcopy(mod)  # the realization's cache stays clean
        nums, den = mod.f_block[(0, (2,))]
        assert nums == [[1]] and den == 1
        nums[0][0] = 0
        return mod

    monkeypatch.setattr(verify, "realize_module", perturbed)
    claim = _tensor_claim()
    assert claim.status == "fail"
    # F_1 no longer maps the top of L(2) onto the zero weight: the rank
    # route finds L(0) in L(2) (x) L(0), which Klimyk does not
    assert "first: ('A1', (2,), (0,), (0,), 'rank', 0, 1)" in claim.detail


def test_fusion_agreement_sees_an_oracle_off_by_one(monkeypatch):
    import liefusion.verify as verify
    from liefusion.affine import AffineWeight

    real = verify.kac_walton_fusion
    b2 = AlgebraId("B", 2)
    target = (AffineWeight(Weight.from_fundamental(b2, [0, 1]), 1),
              AffineWeight(Weight.from_fundamental(b2, [0, 1]), 1),
              AffineWeight(Weight.from_fundamental(b2, [0, 0]), 1))

    def off_by_one(q):
        # the oracle's own value, raised by one on the pinned query only
        return real(q) + ((q.lam, q.mu, q.nu) == target)

    def fusion_claim():
        report = VerificationReport("f")
        verify.check_fusion_theorems(report, levels=(1,))
        return next(r for r in report.results if r.claim_id == "fusion-closed-forms")

    assert fusion_claim().status == "pass"
    monkeypatch.setattr(verify, "kac_walton_fusion", off_by_one)
    claim = fusion_claim()
    assert claim.status == "fail"
    # the spin charge of B2 at level 1: L(0,1) (x) L(0,1) holds L(0,0) once,
    # which the perturbed oracle counts twice
    assert ", 1 disagreements; first: ('B2', 1, 'last', '(0,1)@1', '(0,0)@1', 1, 2)" \
        in claim.detail


def test_g2_graph_sees_a_dropped_loop(monkeypatch):
    # L(1,0) (x) L(1,0) without its L(1,0), as g2_tensor_graph sees it: the
    # 7-dim node loses its loop, g2-tensor-graph FAILs on it, and no other
    # claim of the reduced suite moves from its recorded report. The drop is
    # scoped to the graph: level-saturation reads the same Klimyk query
    # through tensor_multiplicity and would FAIL with it
    import json
    import pathlib

    import liefusion.tensor as tensor
    import liefusion.verify as verify

    real, real_graph = tensor.tensor_decomposition, verify.g2_tensor_graph
    g2 = AlgebraId("G", 2)

    def drop_loop(lam, mu):
        dec = dict(real(lam, mu))  # a copy: the oracle's cache stays clean
        if (lam.algebra, lam.fundamental, mu.fundamental) == (g2, (1, 0), (1, 0)):
            del dec[(1, 0)]
        return dec

    def graph_without_loop(height):
        with monkeypatch.context() as m:
            m.setattr(tensor, "tensor_decomposition", drop_loop)
            return real_graph(height)

    monkeypatch.setattr(verify, "g2_tensor_graph", graph_without_loop)
    got = json.loads(verify_full(seed=11, cap=16, cutoffs=(3, 4), levels=(1,)).to_json())
    golden = pathlib.Path(__file__).with_name("reduced_suite_seed11.json")
    want = json.loads(golden.read_text())
    assert len(got["results"]) == len(want["results"])
    moved = [(a, b) for a, b in zip(got["results"], want["results"]) if a != b]
    assert [(a["claim"], a["status"], b["status"]) for a, b in moved] == [
        ("g2-tensor-graph", "fail", "pass")]
    assert moved[0][0]["detail"] == ("9 nodes, 19 edges; "
                                     "first mismatch ((1, 0), (1, 0), False, True)")
