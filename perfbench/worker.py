"""One benchmark iteration: run one workload's checks in this fresh process.

    python3 perfbench/worker.py --workload tensor-sweep --seed 1 [--size tiny]
                                [--trace-out spans.json]

Prints one JSON line: the claims the checks reported, the wall and CPU
seconds of the timed region (first check call to last check return), the
``time.monotonic()`` reading at the first check call (``run.py`` subtracts
its own reading at launch to get set-up time), the peak RSS and the numpy
version. With ``--trace-out`` the layers are traced (see ``tracing.py``), the
per-layer numbers are added under ``"layers"`` and the spans are written to
the given file.

Caches are cold at the first check because every process starts empty, as a
user's ``verify-paper`` run does.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Check arguments per size. "full" is what the benchmark measures; "tiny" is
# the smoke test's. Cutoffs 3/4 are known to FAIL the order-1 energy probe.
SIZES = {
    "full": {
        "cap": 64,
        "cutoffs": (6, 8), "anti_cutoffs": (4, 6, 7), "phase_cutoff": 8,
        "levels": (1, 2), "e8_samples": 5000,
        "lattices": 20, "triples": 100,
    },
    "tiny": {
        "cap": 16,
        "cutoffs": (3, 4), "anti_cutoffs": (4, 6), "phase_cutoff": 4,
        "levels": (1,), "e8_samples": 100,
        "lattices": 4, "triples": 50,
    },
}


def tensor_sweep(verify, size, seed):
    types = list(verify.SWEEP_TYPES)
    random.Random(seed).shuffle(types)

    def run(report):
        verify.check_tensor_triple_agreement(report, size["cap"], tuple(types))
    return run


def fock_probe(verify, size, seed):
    def run(report):
        verify.check_heisenberg(report, size["cutoffs"], size["anti_cutoffs"],
                                size["phase_cutoff"])
    return run


def algebra_battery(verify, size, seed):
    """The ten checks of ``verify_full`` that the other workloads leave out,
    in ``verify_full``'s order."""
    def run(report):
        verify.check_e8_construction(report, seed, size["e8_samples"])
        pair = verify.check_exceptional_pair(report)
        if pair is not None:
            verify.check_branch_and_index(report, pair)
        verify.check_spin_dimensions(report)
        verify.check_conformal_weights(report)
        verify.check_g2_graph(report)
        verify.check_fusion_theorems(report, size["levels"])
        verify.check_pairing_witnesses(report)
        verify.check_compression_preconditions(report)
        verify.check_lattice_cocycle(report, seed, size["lattices"], size["triples"])
    return run


# Each builds, from the size and seed, a function that runs the checks.
WORKLOADS = {
    "tensor-sweep": tensor_sweep,
    "fock-probe": fock_probe,
    "algebra-battery": algebra_battery,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--trace-out", help="trace the layers; write spans here")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    from liefusion import verify

    run = WORKLOADS[args.workload](verify, SIZES[args.size], args.seed)
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer().install()
        run = tracer.wrap("workload", run)
    report = verify.VerificationReport(args.workload)

    first_call = time.monotonic()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    run(report)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    out = {
        "claims": [r.as_dict() for r in report.results],
        "first_call": first_call,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
