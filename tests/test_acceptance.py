"""Acceptance suite: one test per headline criterion, tolerances pinned.

Each test prints a single PASS/FAIL line with its runtime; the stated
runtime ceilings are asserted alongside the mathematical content.
"""
import random
import time

import pytest

from liefusion.chevalley import (
    SHORT_ROOT_WORDS,
    branch,
    build_simply_laced,
    construction_bracket,
    dynkin_embedding_g2_f4,
    dynkin_index,
    orthogonal_complement_witness,
)
from liefusion.heisenberg import (
    ChargeSpace,
    adjoint_phase_check,
    anticommutator_check,
    braid_phase_check,
    energy_bound_probe,
)
from liefusion.highmod import weyl_dimension
from liefusion.rootsys import AlgebraId, Weight
from liefusion.verify import (
    VerificationReport,
    check_fusion_theorems,
    check_g2_graph,
    check_lattice_cocycle,
    check_pairing_witnesses,
    check_tensor_triple_agreement,
)


def report_line(num, label, ok, elapsed):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed"


@pytest.fixture(scope="module")
def exceptional_pair():
    t0 = time.time()
    pair = dynkin_embedding_g2_f4()
    pair.build_seconds = time.time() - t0
    return pair


def test_criterion_1_e8_construction():
    t0 = time.time()
    alg = build_simply_laced(AlgebraId("E", 8))
    ok = alg.dim == 248 and len(alg.roots) == 240
    rng = random.Random(7)
    ok = ok and alg.check_jacobi(10000, rng)
    ok = ok and alg.check_invariance(10000, rng)
    elapsed = time.time() - t0
    ok = ok and elapsed <= 60
    report_line(1, "rank-8 construction", ok, elapsed)


def test_criterion_2_exceptional_embedding(exceptional_pair):
    t0 = time.time()
    pair = exceptional_pair
    ok = pair.g2.dim == 14 and pair.f4.dim == 52
    ok = ok and pair.g2.recovered_cartan() == [[2, -1], [-3, 2]]
    amb = pair.ambient
    for x in pair.g2.span_basis:
        for y in pair.f4.span_basis:
            if amb.bracket(x, y):
                ok = False
    signed = {}
    for s, w in zip(pair.signs, SHORT_ROOT_WORDS):
        for lbl, c in construction_bracket(amb, w).items():
            signed[lbl] = signed.get(lbl, 0) + s * c
    ok = ok and {lbl: c for lbl, c in signed.items() if c} == pair.g2.generators[0]
    elapsed = time.time() - t0 + pair.build_seconds
    ok = ok and elapsed <= 300
    report_line(2, "commuting exceptional pair", ok, elapsed)


def test_criterion_3_branch_index_witness(exceptional_pair):
    t0 = time.time()
    pair = exceptional_pair
    dec = branch(pair.g2, AlgebraId("G", 2))
    ok = {tuple(int(x) for x in k): v for k, v in dec.items()} == {
        (0, 0): 52,
        (1, 0): 26,
        (0, 1): 1,
    }
    ok = ok and dynkin_index(pair.g2) == 1
    wit = orthogonal_complement_witness()
    ok = ok and wit["pairing"] != 0
    report_line(3, "branching, index, complement witness", ok, time.time() - t0)


def test_criterion_4_tensor_triple_agreement():
    t0 = time.time()
    report = VerificationReport("acceptance")
    check_tensor_triple_agreement(report, cap=512)
    elapsed = time.time() - t0
    ok = report.passed and elapsed <= 600
    print("   ", report.results[-1].detail)
    report_line(4, "three-route tensor agreement", ok, elapsed)


def test_criterion_5_g2_tensor_graph():
    t0 = time.time()
    report = VerificationReport("acceptance")
    check_g2_graph(report, height=4)
    report_line(5, "tensor graph at height 4", report.passed, time.time() - t0)


def test_criterion_6_fusion_theorems():
    t0 = time.time()
    report = VerificationReport("acceptance")
    check_fusion_theorems(report, levels=(1, 2, 3))
    assumed = [r for r in report.results if r.status == "assumed"]
    ok = report.passed and len(assumed) == 1
    print("   ", "; ".join(r.detail for r in report.results if r.status == "pass"))
    report_line(6, "closed-form fusion vs oracle", ok, time.time() - t0)


def test_criterion_7_spin_dimensions():
    t0 = time.time()
    ok = True
    for n in range(2, 6):
        b = AlgebraId("B", n)
        ok = ok and weyl_dimension(
            Weight.from_fundamental(b, [0] * (n - 1) + [1])
        ) == 2 ** n
        d = AlgebraId("D", n + 1)
        ok = ok and weyl_dimension(
            Weight.from_fundamental(d, [0] * (n - 1) + [1, 0])
        ) == 2 ** n
        ok = ok and weyl_dimension(
            Weight.from_fundamental(d, [0] * n + [1])
        ) == 2 ** n
    report_line(7, "spin dimensions 2^n", ok, time.time() - t0)


def test_criterion_8_pairing_lemmas():
    t0 = time.time()
    report = VerificationReport("acceptance")
    check_pairing_witnesses(report)
    report_line(8, "exact pairing witnesses", report.passed, time.time() - t0)


def test_criterion_9_lattice_cocycle():
    t0 = time.time()
    report = VerificationReport("acceptance")
    check_lattice_cocycle(report, seed=7, lattices=20, triples=1000)
    report_line(9, "lattice cocycles and level-1 fusion", report.passed,
                time.time() - t0)


def test_criterion_10_fock_probes():
    t0 = time.time()
    unit = ChargeSpace([[1]])
    two = ChargeSpace([[2]])
    ok = True
    for cutoff in (6, 8, 10):
        rep = anticommutator_check(unit, [1], cutoff)
        ok = ok and rep["max_deviation"] <= 1e-10
    eb0 = energy_bound_probe(unit, [1], 0, (8, 12, 16), max_abs_mode=6, slack=1.05)
    eb1 = energy_bound_probe(two, [1], 1, (8, 12, 16), max_abs_mode=6, slack=1.05)
    ok = ok and eb0.verdict == "PASS" and eb1.verdict == "PASS"
    adj = adjoint_phase_check(two, [1], [1], 12)
    ok = ok and adj["max_deviation"] <= 1e-6
    worst_braid = max(
        braid_phase_check(unit, [1], [1], [2], 12)["max_deviation"],
        braid_phase_check(two, [1], [1], [1], 12)["max_deviation"],
        braid_phase_check(
            ChargeSpace([[1, 0], [0, 1]]), [1, 0], [0, 1], [1, 1], 12
        )["max_deviation"],
    )
    ok = ok and worst_braid <= 1e-6
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300
    report_line(10, "oscillator-space probes", ok, elapsed)
