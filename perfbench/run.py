"""The liefusion benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload tensor-sweep --seed 1 --seconds 40 --trace 0

Runs ``worker.py`` again and again, each time in a fresh process with cold
caches, until ``--seconds`` have passed (at least three times, or once with
``--trace 1``). Every run's claims are checked against the committed
reference verdict of the workload. The last line of output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count claims, and
``metrics`` holds the medians of the ``end_to_end`` metrics named in
``BENCHMARK.json`` (``--trace 0``) or of its ``per_layer`` metrics
(``--trace 1``). The lines before it give the machine record, each metric's
sample count and quartiles, the raw times, and the claims' fail ratio.

Untraced, ``calibrate.py`` runs before the first process and after each
one. The ``*_norm_s`` metrics and ``setup_s`` are each process's time
scaled by ``REFERENCE_S`` over the mean of the calibrations on either side
of it, which takes out most of the host's drift in speed (see README.md).
The raw times are printed too.

``--trace 1`` alternates an untraced and a traced process. The per-layer
numbers come from the traced process with the median wall time; the
untraced ones give the tracing overhead. Spans go to ``.bench_out/`` at the
root.

``--write-reference`` runs one process and records its verdict as the
workload's reference instead of checking against it.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from worker import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_RUNS = 3
# Never start a process that could end past this; callers allow 180 s.
RUN_LIMIT_S = 150.0
# The counts a claim's detail states, e.g. "10018 queries, 0 disagreements".
COUNT_RE = re.compile(
    r"\b(\d+) (queries|disagreements|roots|nodes|edges|lattices"
    r"|random basis triples|triples)\b")


def verdict(claims) -> dict:
    """claim id -> status and stated counts: what a reference pins down."""
    return {
        c["claim"]: {
            "status": c["status"],
            "counts": {noun: int(n) for n, noun in COUNT_RE.findall(c["detail"])},
        }
        for c in claims
    }


def score(reference: dict, got: dict) -> tuple[int, int]:
    """(attempted, failed) claims; a claim missing on either side fails."""
    ids = reference.keys() | got.keys()
    return len(ids), sum(reference.get(i) != got.get(i) for i in ids)


def read_load():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def run_worker(workload, seed, size, trace_out, timeout):
    """One fresh process; returns (result, None) or (None, why it failed)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("LIEFUSION_CAP", None)
    # time.monotonic() is CLOCK_MONOTONIC, shared with the worker's reading.
    launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    res = json.loads(out.splitlines()[-1])
    res["setup_raw_s"] = res["first_call"] - launch
    return res, None


def run_calibration(timeout) -> float:
    out = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")],
                         capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(out.stdout)["cal_s"]


def summary(name, values, unit) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f", q1 {q1:.6g}, q3 {q3:.6g}"
    return line + ")"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "liefusion", "verify.py")):
        print(f"no liefusion sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ref_path = os.path.join(HERE, "reference", args.size, f"{args.workload}.json")

    if args.write_reference:
        res, why = run_worker(args.workload, args.seed, args.size, None, RUN_LIMIT_S)
        if res is None:
            print(why, file=sys.stderr)
            return 1
        with open(ref_path, "w") as fh:
            json.dump(verdict(res["claims"]), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {ref_path}")
        return 0

    with open(ref_path) as fh:
        reference = json.load(fh)
    trace_out = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.size}-seed{args.seed}.json")

    machine = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
               "load_start": read_load()}
    plain, traced, durations = [], [], []
    attempted = failed = 0
    start = time.monotonic()

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - start))

    # Calibrations before the first workload process and after each one, so
    # that every process has one on either side.
    cals = [] if args.trace else [run_calibration(remaining())]

    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(durations) if durations else 0.0
        enough = len(durations) >= (1 if args.trace else MIN_RUNS)
        if elapsed + typical > RUN_LIMIT_S or (enough and elapsed + typical > args.seconds):
            break
        t0 = time.monotonic()
        ok = True
        for spans in ([None, trace_out] if args.trace else [None]):
            res, why = run_worker(args.workload, args.seed, args.size, spans, remaining())
            if res is None:
                print(f"run failed: {why}", file=sys.stderr)
                attempted += len(reference)
                failed += len(reference)
                ok = False
                break
            a, f = score(reference, verdict(res["claims"]))
            attempted += a
            failed += f
            machine["numpy"] = res["numpy"]
            (traced if spans else plain).append(res)
        if not ok:
            break
        if not args.trace:
            cals.append(run_calibration(remaining()))
        durations.append(time.monotonic() - t0)
    machine["load_end"] = read_load()

    if not plain or (args.trace and not traced):
        print("no run completed; no metrics", file=sys.stderr)
        return 1
    raw = {}
    if args.trace:
        # All layer numbers come from one traced process, the one with the
        # median wall time, so that they add up within that process.
        mid = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(mid["layers"], **{
            "trace.wall_s": mid["wall_s"],
            "trace.overhead_s": mid["wall_s"] - statistics.median(r["wall_s"] for r in plain),
        })
        metrics_spec = spec["per_layer"]
        samples = {m["name"]: [layers[m["name"]]] for m in metrics_spec}
        checks = sum(v for k, v in layers.items()
                     if k.startswith("verify.") and k.endswith(".total_s"))
    else:
        for r, before, after in zip(plain, cals, cals[1:]):
            scale = REFERENCE_S / ((before + after) / 2)
            r["wall_norm_s"] = r["wall_s"] * scale
            r["cpu_norm_s"] = r["cpu_s"] * scale
            r["setup_s"] = r["setup_raw_s"] * scale
        metrics_spec = spec["end_to_end"]
        samples = {m["name"]: [r[m["name"]] for r in plain] for m in metrics_spec}
        raw = {name: [r[name] for r in plain] for name in ("wall_s", "cpu_s", "setup_raw_s")}
        raw["cal_s"] = cals

    print("machine: " + json.dumps(machine))
    for m in metrics_spec:
        print(summary(m["name"], samples[m["name"]], m["unit"]))
    for name, values in raw.items():
        print(summary(name, values, "s") + ", not normalised")
    if args.trace:
        print(f"checks: the verify.*.total_s sum to {checks:.6g} s "
              f"of trace.wall_s {mid['wall_s']:.6g} s")
    print(f"claims: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted if attempted else 0.0:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in metrics_spec
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
