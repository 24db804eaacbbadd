"""Verification suite: every headline computation re-run and judged.

Each claim has a stable id and a content anchor; statuses are pass, fail,
or assumed. The single assumed entry records that the affine fusion oracle
(the folding computation) is identified with the dimension of the
corresponding intertwiner space, which this toolkit takes as input rather
than reproves.
"""
from __future__ import annotations

import contextlib
import gc
import itertools
import json
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .affine import (
    AffineWeight,
    FusionQuery,
    _supported_charges,
    admissible_weights,
    casimir_eigenvalue,
    conformal_weight,
    generating_check,
    kac_walton_fusion,
    closed_form_fusion,
    large_level_check,
    level_reduction_conditions,
    theta_pairing,
)
from .chevalley import (
    branch,
    build_simply_laced,
    dynkin_embedding_g2_f4,
    dynkin_index,
    embed_so_odd,
    embed_sp,
    g2_seven_dim_pairing_witness,
    orthogonal_complement_witness,
    spin_chain_pairing_witness,
    zero_weight_split_witness,
)
from .heisenberg import (
    ChargeSpace,
    adjoint_phase_check,
    anticommutator_check,
    braid_phase_check,
    energy_bound_probe,
    probe_cutoffs,
)
from .highmod import all_weights, check_cap, realize_module, weyl_dimension
from .lattice import Cocycle, DualCocycle, IntegralLattice, lattice_fusion
from .rootsys import AlgebraId, Weight, build_root_system, inner_product
from .tensor import _criterion_core, _rank_route_core, g2_tensor_graph, tensor_decomposition

SCHEMA = "liefusion/1"


@dataclass
class ClaimResult:
    claim_id: str
    anchor: str
    status: str  # "pass" | "fail" | "assumed"
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "anchor": self.anchor,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    suite: str
    results: list = field(default_factory=list)

    def add(self, claim_id: str, anchor: str, ok: bool, detail: str = ""):
        self.results.append(
            ClaimResult(claim_id, anchor, "pass" if ok else "fail", detail)
        )

    def add_assumed(self, claim_id: str, anchor: str, detail: str):
        self.results.append(ClaimResult(claim_id, anchor, "assumed", detail))

    def add_failed(self, claim_id: str, anchor: str, detail: str):
        """A claim whose computation raised; the error is the detail."""
        self.results.append(ClaimResult(claim_id, anchor, "fail", detail))

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "passed": self.passed,
            "results": [r.as_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# individual criteria


def check_e8_construction(report: VerificationReport, seed: int = 7,
                          samples: int = 10000):
    alg = build_simply_laced(AlgebraId("E", 8))
    report.add("e8-dimension", "structure:e8-dim-248", alg.dim == 248,
               f"dim {alg.dim}")
    report.add("e8-roots", "structure:e8-240-roots", len(alg.roots) == 240,
               f"{len(alg.roots)} roots")
    rng = random.Random(seed)
    report.add("e8-jacobi", "structure:jacobi-identity",
               alg.check_jacobi(samples, rng), f"{samples} random basis triples")
    report.add("e8-form-invariance", "structure:form-invariance",
               alg.check_invariance(samples, rng), f"{samples} random basis triples")


G2_CARTAN = [[2, -1], [-3, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def _cartan_matches(mat, ref) -> bool:
    """mat equals ref up to a renumbering of the simple roots."""
    n = len(ref)
    if len(mat) != n:
        return False
    for p in itertools.permutations(range(n)):
        if all(mat[p[i]][p[j]] == ref[i][j] for i in range(n) for j in range(n)):
            return True
    return False


def check_exceptional_pair(report: VerificationReport):
    """The one judge of the g2 + f4 pair: dims, Cartans, commuting direct sum."""
    try:
        pair = dynkin_embedding_g2_f4()
        g2_cartan = pair.g2.recovered_cartan()
        f4_cartan = pair.f4.recovered_cartan()
    except Exception as exc:  # verification failure carries the detail
        report.add_failed("embedding-build", "embedding:g2-f4-in-e8", str(exc))
        return None
    report.add("embedding-dims", "embedding:dims-14-52",
               (pair.g2.dim, pair.f4.dim) == (14, 52),
               f"dims {(pair.g2.dim, pair.f4.dim)}, signs {pair.signs}")
    report.add("embedding-cartans", "embedding:recovered-cartans",
               g2_cartan == G2_CARTAN and _cartan_matches(f4_cartan, F4_CARTAN),
               f"g2 {g2_cartan}, f4 {f4_cartan}")
    # the factors commute and their spans meet only in 0: a direct sum of 66
    ech = linalg.Echelon()
    for v in pair.g2.span_basis + pair.f4.span_basis:
        ech.add(v)
    joint = len(ech.rows)
    commute = not any(pair.ambient.bracket(x, y)
                      for x in pair.g2.span_basis for y in pair.f4.span_basis)
    report.add("embedding-joint-span", "embedding:direct-sum-66",
               joint == 66 and commute, f"joint dim {joint}")
    report.add("embedding-unit-generator", "embedding:long-generator-norm-1",
               pair.ambient.inner(pair.g2.generators[1], pair.g2.generators[1]) == 1)
    return pair


def check_branch_and_index(report: VerificationReport, pair):
    dec = branch(pair.g2, AlgebraId("G", 2))
    expect = {(0, 0): 52, (1, 0): 26, (0, 1): 1}
    report.add("adjoint-branching", "branching:e8-adjoint-under-g2",
               dec == expect, f"{dec}")
    report.add("index-g2", "index:g2-in-e8", dynkin_index(pair.g2) == 1)
    report.add("index-f4", "index:f4-in-e8", dynkin_index(pair.f4) == 1)
    try:
        wit = orthogonal_complement_witness()
    except Exception as exc:
        report.add_failed("complement-witness", "complement:bracket-witness", str(exc))
    else:
        report.add("complement-witness", "complement:bracket-witness",
                   wit["pairing"] != 0, f"pairing {wit['pairing']}")
    for n in (2, 3):
        _, sub = embed_so_odd(n)
        report.add(f"index-so{2*n+1}", "index:odd-orthogonal-in-even",
                   dynkin_index(sub) == 1)
        _, sub = embed_sp(n)
        report.add(f"index-sp{2*n}", "index:symplectic-in-orthogonal",
                   dynkin_index(sub) == 1)


SWEEP_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
    ("C", 2), ("C", 3), ("D", 4), ("G", 2),
)


def weights_under_cap(aid: AlgebraId, max_dim: int) -> list:
    """(dim, fundamental tuple) for every dominant weight with dim <= max_dim."""
    bounds = []
    for i in range(aid.rank):
        k = 0
        while True:
            f = [0] * aid.rank
            f[i] = k + 1
            if weyl_dimension(Weight.from_fundamental(aid, f)) > max_dim:
                break
            k += 1
        bounds.append(k)
    out = []
    for f in itertools.product(*[range(b + 1) for b in bounds]):
        d = weyl_dimension(Weight.from_fundamental(aid, list(f)))
        if d <= max_dim:
            out.append((d, f))
    return sorted(out)


@contextlib.contextmanager
def _collector_paused():
    """Pause CPython's cyclic collector for the block, then restore its state.

    The tensor sweep allocates millions of containers and makes no reference
    cycles: every collection its allocations trigger walks the growing
    module, character and Klimyk caches and finds no garbage. A collector
    that was off on entry stays off; one that was on is turned on again even
    when the block raises.

    Before it is turned on, every tracked object is moved to the oldest
    generation (``gc.freeze()`` then ``gc.unfreeze()``, two list splices;
    nothing stays frozen). Otherwise the first allocation after the block
    starts a young-generation pass over all that the sweep left in the
    caches, and the passes after it walk them again, so the rest of the run
    pays what the pause saved. Where objects were frozen before, the
    unfreeze would thaw them too, so they are left alone and the young
    pass runs.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def check_tensor_triple_agreement(report: VerificationReport, cap: int = 512,
                                  types=SWEEP_TYPES):
    """Exhaustive oracle/rank/criterion agreement under the product cap.

    cap is the sweep size: every pair of modules with d1 d2 <= cap. Each
    module must also fit the module cap (``highmod.check_cap``). The sweep
    runs with the cyclic collector paused (``_collector_paused``).
    """
    total = 0
    bad = []
    with _collector_paused():
        for s, n in types:
            aid = AlgebraId(s, n)
            ws = weights_under_cap(aid, cap)
            for d1, f1 in ws:
                lam = Weight.from_fundamental(aid, f1)
                mod = realize_module(lam)
                wts = list(all_weights(lam))
                for d2, f2 in ws:
                    if d1 * d2 > cap:
                        continue
                    dec = tensor_decomposition(lam, Weight.from_fundamental(aid, f2))
                    for sig in wts:
                        nuf = tuple(map(operator.add, sig, f2))
                        if min(nuf) < 0:
                            continue
                        t = dec.get(nuf, 0)
                        # sig = nu - mu, the weight of L(lam) the routes ask for
                        p = _rank_route_core(mod, f2, sig)
                        if t != p:
                            bad.append((str(aid), f1, f2, nuf, "rank", t, p))
                        c = _criterion_core(lam, sig, f2)
                        if c is not None and c != t:
                            bad.append((str(aid), f1, f2, nuf, "criterion", t, c))
                        total += 1
    report.add("tensor-triple-agreement", "tensor:three-route-agreement",
               not bad, f"{total} queries, {len(bad)} disagreements"
               + (f"; first: {bad[0]}" if bad else ""))


G2_SHORT_DIRECTIONS = {(1, 0), (-1, 0), (-1, 1), (1, -1), (2, -1), (-2, 1)}


def check_g2_graph(report: VerificationReport, height: int = 4):
    gr = g2_tensor_graph(height)
    ok = True
    first = None
    for mu in gr.nodes:
        for nu in gr.nodes:
            has = tuple(sorted((mu, nu))) in gr.edges
            if mu == nu:
                want = mu[0] > 0
            else:
                want = (nu[0] - mu[0], nu[1] - mu[1]) in G2_SHORT_DIRECTIONS
            if has != want:
                ok = False
                first = first or (mu, nu, has, want)
    report.add("g2-tensor-graph", "tensor:g2-seven-dim-graph", ok,
               f"{len(gr.nodes)} nodes, {len(gr.edges)} edges"
               + (f"; first mismatch {first}" if first else ""))


FUSION_SWEEP = (
    ("B", 2, ("first", "last")),
    ("B", 3, ("first", "last")),
    ("C", 2, ("first",)),
    ("C", 3, ("first",)),
    ("A", 1, ("first",)),
    ("A", 2, ("first",)),
    ("A", 3, ("first",)),
    ("D", 4, ("first", "spin+", "spin-")),
    ("G", 2, ("first",)),
)

GENERATING_FAMILIES = (
    ("B", 2, ("last",)),
    ("B", 3, ("last",)),
    ("C", 2, ("first",)),
    ("C", 3, ("first",)),
    ("D", 4, ("spin+", "spin-")),
    ("G", 2, ("first",)),
)


def _charge_weight(aid: AlgebraId, tag: str) -> Weight:
    n = aid.rank
    idx = {"first": 0, "last": n - 1, "spin+": n - 2, "spin-": n - 1}[tag]
    return Weight.from_fundamental(aid, [1 if k == idx else 0 for k in range(n)])


def check_fusion_theorems(report: VerificationReport, levels=(1, 2, 3)):
    total = 0
    bad = []
    for s, n, tags in FUSION_SWEEP:
        aid = AlgebraId(s, n)
        for level in levels:
            adm = admissible_weights(aid, level)
            for tag in tags:
                ch = _charge_weight(aid, tag)
                if theta_pairing(ch) > level:
                    continue
                chw = AffineWeight(ch, level)
                for mu in adm:
                    for nu in adm:
                        q = FusionQuery(chw, mu, nu)
                        rule = closed_form_fusion(q)
                        oracle = kac_walton_fusion(q)
                        if rule is None or rule != oracle:
                            bad.append((str(aid), level, tag, str(mu), str(nu),
                                        rule, oracle))
                        total += 1
    report.add("fusion-closed-forms", "fusion:closed-form-vs-oracle",
               not bad, f"{total} queries, {len(bad)} disagreements"
               + (f"; first: {bad[0]}" if bad else ""))

    gen_ok = True
    gen_detail = []
    for s, n, tags in GENERATING_FAMILIES:
        aid = AlgebraId(s, n)
        for level in levels:
            fam = []
            for tag in tags:
                w = _charge_weight(aid, tag)
                if theta_pairing(w) <= level:
                    fam.append(w)
            if not fam:
                continue
            ok, _ = generating_check(fam, level, aid)
            gen_ok = gen_ok and ok
            gen_detail.append(f"{aid}@{level}:{'ok' if ok else 'FAIL'}")
    report.add("generating-families", "fusion:generating-families", gen_ok,
               ", ".join(gen_detail))
    report.add_assumed(
        "fusion-oracle-identification", "fusion:folding-equals-intertwiner-dim",
        "the folding oracle is identified with the intertwiner-space "
        "dimension; taken as input, not reproved here",
    )


def check_spin_dimensions(report: VerificationReport, ns=(2, 3, 4, 5)):
    ok = True
    detail = []
    for n in ns:
        b = AlgebraId("B", n)
        db = weyl_dimension(Weight.from_fundamental(b, [0] * (n - 1) + [1]))
        d = AlgebraId("D", n + 1)
        dp = weyl_dimension(Weight.from_fundamental(d, [0] * (n - 1) + [1, 0]))
        dm = weyl_dimension(Weight.from_fundamental(d, [0] * n + [1]))
        ok = ok and db == dp == dm == 2 ** n
        detail.append(f"n={n}: {db},{dp},{dm}")
    report.add("spin-dimensions", "modules:spin-dimension-2^n", ok,
               "; ".join(detail))


def check_pairing_witnesses(report: VerificationReport):
    w = g2_seven_dim_pairing_witness()
    report.add("pairing-g2", "pairing:g2-seven-dim", w["nonzero"])
    for n in (2, 3):
        z = zero_weight_split_witness(n)
        report.add(f"pairing-zero-split-{n}", "pairing:middle-vector-split",
                   z["components_both_nonzero"] and z["nonzero_blocks_match"],
                   str(z))
    sc = spin_chain_pairing_witness()
    report.add("pairing-spin-chain", "pairing:vector-spin-chain",
               all(v["pairing_nonzero"] for v in sc.values()), str(sc))


def random_even_lattice(rng: random.Random, rank: int) -> IntegralLattice:
    """Random positive-definite even lattice (diagonally dominant)."""
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        for i in range(rank):
            g[i][i] = 2 * rng.randint(1, 3) + 2 * sum(
                abs(g[i][j]) for j in range(rank) if j != i
            )
        return IntegralLattice.from_rows(g)


def check_lattice_cocycle(report: VerificationReport, seed: int = 7,
                          lattices: int = 20, triples: int = 1000):
    rng = random.Random(seed)
    ok = True
    for _ in range(lattices):
        rank = rng.randint(1, 4)
        lat = random_even_lattice(rng, rank)
        eps = Cocycle(lat)
        dc = DualCocycle(lat)
        for _ in range(triples):
            a = [rng.randint(-3, 3) for _ in range(rank)]
            b = [rng.randint(-3, 3) for _ in range(rank)]
            c = [rng.randint(-3, 3) for _ in range(rank)]
            bc = [x + y for x, y in zip(b, c)]
            ab = [x + y for x, y in zip(a, b)]
            if eps.value(a, bc) * eps.value(b, c) != eps.value(a, b) * eps.value(ab, c):
                ok = False
            if eps.value(a, [0] * rank) != 1:
                ok = False
            if eps.commutator(a, b) != (-1) ** (int(lat.pairing(a, b)) % 2):
                ok = False
            if (dc.exponent(a, b) - dc.exponent(b, a)) % 2 != lat.pairing(a, b) % 2:
                ok = False
    report.add("cocycle-identities", "lattice:cocycle-identities", ok,
               f"{lattices} lattices x {triples} triples")

    # level-1 fusion against the lattice membership rule
    agree = True
    count = 0
    for s, n in (("A", 1), ("A", 2), ("D", 4)):
        aid = AlgebraId(s, n)
        rs = build_root_system(aid)
        lat = IntegralLattice.from_rows(rs.cartan_matrix)
        adm = admissible_weights(aid, 1)
        supported = _supported_charges(aid)
        for lamw in adm:
            if lamw.finite_part.fundamental not in supported:
                continue
            for muw in adm:
                for nuw in adm:
                    q = FusionQuery(lamw, muw, nuw)
                    rule = closed_form_fusion(q)
                    lf = lattice_fusion(
                        lat,
                        lamw.finite_part.coords,
                        muw.finite_part.coords,
                        nuw.finite_part.coords,
                    )
                    if rule != lf:
                        agree = False
                    count += 1
    report.add("lattice-fusion-level1", "lattice:fusion-vs-level-one", agree,
               f"{count} queries on the three root lattices")


def check_heisenberg(report: VerificationReport, cutoffs=(8, 12, 16),
                     anti_cutoffs=(6, 8, 10), phase_cutoff: int = 12):
    unit = ChargeSpace([[1]])
    ok = True
    details = []
    for cut in anti_cutoffs:
        rep = anticommutator_check(unit, [1], cut)
        details.append(f"cutoff {cut}: dev {rep['max_deviation']:.2e}")
        ok = ok and rep["max_deviation"] <= 1e-10
    report.add("anticommutator", "fock:mode-anticommutator", ok, "; ".join(details))

    eb0 = energy_bound_probe(unit, [1], 0, cutoffs, max_abs_mode=6)
    report.add("energy-bound-order0", "fock:zeroth-order-trend",
               eb0.verdict == "PASS",
               f"maxima {dict((k, round(v, 6)) for k, v in eb0.maxima.items())}")
    two = ChargeSpace([[2]])
    eb1 = energy_bound_probe(two, [1], 1, cutoffs, max_abs_mode=6)
    report.add("energy-bound-order1", "fock:first-order-trend",
               eb1.verdict == "PASS",
               f"maxima {dict((k, round(v, 6)) for k, v in eb1.maxima.items())}")

    adj = adjoint_phase_check(two, [1], [1], phase_cutoff)
    report.add("adjoint-phase", "fock:adjoint-phase", adj["max_deviation"] <= 1e-6,
               f"dev {adj['max_deviation']:.2e}, phase {adj['phase']:.3f}")
    br = braid_phase_check(ChargeSpace([[1]]), [1], [1], [2], phase_cutoff)
    br0 = braid_phase_check(ChargeSpace([[1, 0], [0, 1]]), [1, 0], [0, 1],
                            [1, 1], phase_cutoff)
    br2 = braid_phase_check(two, [1], [1], [1], phase_cutoff)
    worst = max(br["max_deviation"], br0["max_deviation"], br2["max_deviation"])
    report.add("braid-phase", "fock:braid-phase", worst <= 1e-6,
               f"worst dev {worst:.2e}")


def check_compression_preconditions(report: VerificationReport):
    """Level-reduction checks: the saturation bound and the witness flags."""
    ok = True
    details = []
    for s, n in (("A", 1), ("B", 2), ("C", 2), ("G", 2)):
        aid = AlgebraId(s, n)
        for level in (1, 2, 3):
            adm = admissible_weights(aid, level)
            for lamw in adm:
                for muw in adm:
                    for nuw in adm:
                        r = large_level_check(FusionQuery(lamw, muw, nuw))
                        if r.applicable and not r.agree:
                            ok = False
                            details.append(f"saturation failed at {lamw},{muw},{nuw}")
    report.add("level-saturation", "compression:large-level-saturation", ok,
               details[0] if details else "all applicable queries agree")

    # type C chain: rho = mu, mu1 = 0, nu1 = first fundamental, level 2
    c2 = AlgebraId("C", 2)
    w = lambda f: Weight.from_fundamental(c2, f)
    flags = level_reduction_conditions(
        w([1, 0]), w([1, 0]), w([2, 0]), w([1, 0]), w([0, 0]), w([1, 0]),
        level=2, a=1,
    )
    ok_c = flags["a"]
    # G2 second reduction case: rho = mu1 = nu1 = the 7-dim weight
    g2 = AlgebraId("G", 2)
    v = lambda f: Weight.from_fundamental(g2, f)
    flags_g = level_reduction_conditions(
        v([1, 0]), v([2, 0]), v([0, 1]), v([1, 0]), v([1, 0]), v([1, 0]),
        level=2, a=1,
    )
    ok_g = flags_g["b"]
    report.add("level-reduction-witnesses", "compression:reduction-conditions",
               ok_c and ok_g, f"chain {flags}, seven-dim {flags_g}")


def check_conformal_weights(report: VerificationReport):
    ok = True
    pairs = []
    for s, n, f in (("A", 1, [1]), ("B", 2, [0, 1]), ("C", 2, [1, 0]),
                    ("G", 2, [1, 0]), ("A", 2, [1, 1])):
        aid = AlgebraId(s, n)
        lam = Weight.from_fundamental(aid, f)
        rs = build_root_system(aid)
        cas = casimir_eigenvalue(lam)
        closed = inner_product(lam, lam) + 2 * inner_product(lam, rs.weyl_vector)
        ok = ok and cas == closed
        pairs.append(f"{aid}:{cas}")
    a1 = AffineWeight(Weight.from_fundamental(AlgebraId("A", 1), [1]), 1)
    ok = ok and conformal_weight(a1) == Fraction(1, 4)
    positives = True
    for s, n in (("A", 1), ("B", 3), ("C", 3), ("D", 4), ("G", 2)):
        aid = AlgebraId(s, n)
        for level in (1, 2, 3):
            for w in admissible_weights(aid, level):
                d = conformal_weight(w)
                positives = positives and (d > 0) == (not w.finite_part.is_zero())
    report.add("conformal-weights", "affine:sugawara-lowest-energy",
               ok and positives, "; ".join(pairs))


# ---------------------------------------------------------------------------
# suite drivers


def verify_e8(seed: int = 7) -> VerificationReport:
    report = VerificationReport("e8")
    check_e8_construction(report, seed)
    pair = check_exceptional_pair(report)
    if pair is not None:
        check_branch_and_index(report, pair)
    # the pairing witnesses read no part of the pair
    check_pairing_witnesses(report)
    return report


def verify_full(seed: int = 7, cap: int = 512, cutoffs=(8, 12, 16),
                 levels=(1, 2, 3)) -> VerificationReport:
    # usage errors, raised before any check runs: a sweep, a probe or a
    # fusion sweep over nothing would pass on no queries
    if cap < 1:
        raise ValueError(f"the sweep size must be >= 1, got {cap}")
    check_cap(cap, "sweep size")
    cutoffs = probe_cutoffs(cutoffs)
    levels = tuple(levels)
    if not levels or not all(type(x) is int and x > 0 for x in levels):
        raise ValueError(f"the fusion levels must be positive integers, got {list(levels)}")
    report = VerificationReport("full")
    check_e8_construction(report, seed)
    pair = check_exceptional_pair(report)
    if pair is not None:
        check_branch_and_index(report, pair)
    check_spin_dimensions(report)
    check_conformal_weights(report)
    check_tensor_triple_agreement(report, cap)
    check_g2_graph(report)
    check_fusion_theorems(report, levels)
    check_pairing_witnesses(report)
    check_compression_preconditions(report)
    check_lattice_cocycle(report, seed)
    check_heisenberg(report, cutoffs)
    return report
