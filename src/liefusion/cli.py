"""Command-line interface: every computation behind one entry point.

All machine output is JSON on stdout (DOT for the tensor graph), carrying
a top-level schema key; diagnostics go to stderr. Exit codes: 0 on
success or PASS, 1 on a computational FAIL, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .affine import (
    AffineWeight,
    FusionQuery,
    admissible_weights,
    conformal_weight,
    kac_walton_fusion,
    level_reduction_conditions,
    closed_form_fusion,
    large_level_check,
)
from .highmod import CapExceeded, weyl_dimension
from .lattice import IntegralLattice, build_cocycle, lattice_fusion
from .rootsys import AlgebraId, Weight, build_root_system
from .tensor import (
    TensorQuery,
    weight_space_criterion,
    g2_tensor_graph,
    rank_route_multiplicity,
    tensor_multiplicity,
)
from .verify import SCHEMA, verify_e8, verify_full

def _parse_coords(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _weight(algebra: str, coords: str) -> Weight:
    return Weight.from_fundamental(AlgebraId.parse(algebra), _parse_coords(coords))


def _emit(payload: dict) -> None:
    payload.setdefault("schema", SCHEMA)
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _cmd_rootsys(args) -> int:
    rs = build_root_system(AlgebraId.parse(args.algebra))
    _emit(
        {
            "algebra": str(rs.algebra),
            "cartan_matrix": rs.cartan_matrix,
            "positive_roots": len(rs.positive_roots),
            "dual_coxeter": rs.dual_coxeter,
            "highest_root": [str(c) for c in rs.highest_root.fundamental],
            "fundamental_weights": [
                [str(c) for c in w.coords] for w in rs.fundamental_weights
            ],
        }
    )
    return 0


def _cmd_weights(args) -> int:
    aid = AlgebraId.parse(args.algebra)
    rows = []
    for w in admissible_weights(aid, args.level):
        rows.append(
            {
                "weight": [str(c) for c in w.finite_part.fundamental],
                "dim": weyl_dimension(w.finite_part),
                "conformal_weight": str(conformal_weight(w)),
            }
        )
    _emit({"algebra": str(aid), "level": args.level, "admissible": rows})
    return 0


def _cmd_tensor(args) -> int:
    lam = _weight(args.algebra, args.charge)
    mu = _weight(args.algebra, args.source)
    if args.target is None:
        # full decomposition table keyed by coordinate strings
        from .tensor import tensor_decomposition

        table = {
            ",".join(str(c) for c in k): m
            for k, m in sorted(tensor_decomposition(lam, mu).items())
        }
        _emit({"charge": args.charge, "source": args.source, "table": table})
        return 0
    q = TensorQuery(lam, mu, _weight(args.algebra, args.target))
    oracle = tensor_multiplicity(q)
    rank_route = rank_route_multiplicity(q)
    criterion = weight_space_criterion(q)
    _emit(
        {
            "query": {
                "charge": args.charge,
                "source": args.source,
                "target": args.target,
            },
            "oracle": oracle,
            "rank_route": rank_route,
            "criterion": criterion,
            "agree": oracle == rank_route
            and (criterion is None or criterion == oracle),
        }
    )
    return 0 if oracle == rank_route else 1


def _cmd_tensor_graph(args) -> int:
    graph = g2_tensor_graph(args.height)
    if args.json:
        _emit(
            {
                "height": args.height,
                "nodes": [list(n) for n in graph.nodes],
                "edges": sorted([list(a), list(b)] for a, b in graph.edges),
            }
        )
    else:
        print(graph.to_dot())
    return 0


def _cmd_fusion(args) -> int:
    aid = AlgebraId.parse(args.algebra)
    q = FusionQuery(
        AffineWeight(_weight(args.algebra, args.charge), args.level),
        AffineWeight(_weight(args.algebra, args.source), args.level),
        AffineWeight(_weight(args.algebra, args.target), args.level),
    )
    rule = closed_form_fusion(q)
    oracle = kac_walton_fusion(q)
    _emit(
        {
            "algebra": str(aid),
            "level": args.level,
            "rule": rule,
            "oracle": oracle,
            "agree": None if rule is None else rule == oracle,
        }
    )
    return 0 if rule is None or rule == oracle else 1


def _cmd_verify_e8(args) -> int:
    report = verify_e8(seed=args.seed)
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_compress_check(args) -> int:
    q = FusionQuery(
        AffineWeight(_weight(args.algebra, args.charge), args.level),
        AffineWeight(_weight(args.algebra, args.source), args.level),
        AffineWeight(_weight(args.algebra, args.target), args.level),
    )
    res = large_level_check(q)
    payload = {
        "large_level": {
            "applicable": res.applicable,
            "fusion": res.fusion,
            "tensor": res.tensor,
            "agree": res.agree,
        }
    }
    if args.shift is not None:
        flags = level_reduction_conditions(
            q.lam.finite_part,
            q.mu.finite_part,
            q.nu.finite_part,
            _weight(args.algebra, args.shift),
            _weight(args.algebra, args.source1),
            _weight(args.algebra, args.target1),
            level=args.level,
            a=args.sublevel,
        )
        payload["reduction_conditions"] = flags
    _emit(payload)
    if res.applicable and not res.agree:
        return 1
    return 0


def _cmd_lattice(args) -> int:
    with open(args.gram) as fh:
        gram = json.load(fh)
    lat = IntegralLattice.from_rows(gram)
    if args.op == "cocycle":
        eps = build_cocycle(lat)
        _emit({"rank": lat.rank, "basis_values": eps.basis_values})
        return 0
    if args.op == "dual":
        _emit(
            {
                "rank": lat.rank,
                "dual_basis": [[str(x) for x in v] for v in lat.dual_basis()],
            }
        )
        return 0
    lam = _parse_coords(args.charge)
    mu = _parse_coords(args.source)
    nu = _parse_coords(args.target)
    n = lattice_fusion(lat, lam, mu, nu)
    _emit({"fusion": n})
    return 0


def _cmd_probe(args) -> int:
    from .heisenberg import ChargeSpace, energy_bound_probe

    if args.gram:
        with open(args.gram) as fh:
            gram = json.load(fh)
    else:
        gram = [[args.norm]]
    space = ChargeSpace(gram)
    charge = _parse_coords(args.charge)
    cutoffs = [int(c) for c in args.cutoffs.split(",")]
    rep = energy_bound_probe(space, charge, args.order, cutoffs,
                             max_abs_mode=args.modes, slack=args.slack)
    _emit(
        {
            "order": rep.order,
            "cutoffs": list(rep.cutoffs),
            "norms": {str(k): v for k, v in rep.norms.items()},
            "maxima": {str(k): v for k, v in rep.maxima.items()},
            "slack": rep.slack,
            "verdict": rep.verdict,
        }
    )
    return 0 if rep.verdict == "PASS" else 1


def _cmd_verify_full(args) -> int:
    cutoffs = tuple(int(c) for c in args.cutoffs.split(","))
    report = verify_full(seed=args.seed, cap=args.cap, cutoffs=cutoffs)
    print(report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liefusion",
        description="exact Lie-theory computations behind affine fusion rules",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rootsys", help="root system facts for one algebra")
    sp.add_argument("--algebra", required=True)
    sp.set_defaults(func=_cmd_rootsys)

    sp = sub.add_parser("weights", help="admissible weights at a level")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.set_defaults(func=_cmd_weights)

    sp = sub.add_parser("tensor", help="tensor multiplicity by three routes")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--charge", required=True)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", help="omit to print the whole table")
    sp.set_defaults(func=_cmd_tensor)

    sp = sub.add_parser("tensor-graph", help="rank-2 exceptional tensor graph")
    sp.add_argument("--height", type=int, default=4)
    sp.add_argument("--json", action="store_true",
                    help="emit JSON instead of DOT")
    sp.add_argument("--dot", action="store_true", help="emit DOT (the default)")
    sp.set_defaults(func=_cmd_tensor_graph)

    sp = sub.add_parser("fusion", help="closed-form rule vs folding oracle")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--charge", required=True)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.set_defaults(func=_cmd_fusion)

    sp = sub.add_parser("verify-e8", help="rank-8 construction report")
    sp.add_argument("--seed", type=int, default=7)
    sp.set_defaults(func=_cmd_verify_e8)

    sp = sub.add_parser("compress-check", help="level-reduction preconditions")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--charge", required=True)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--shift", help="auxiliary weight for the reduction")
    sp.add_argument("--source1", help="reduced source weight")
    sp.add_argument("--target1", help="reduced target weight")
    sp.add_argument("--sublevel", type=int, help="reduced level a")
    sp.set_defaults(func=_cmd_compress_check)

    sp = sub.add_parser("lattice", help="even-lattice operations")
    sp.add_argument("--gram", required=True, help="JSON file with the Gram matrix")
    sp.add_argument("--op", choices=("cocycle", "fusion", "dual"), required=True)
    sp.add_argument("--charge")
    sp.add_argument("--source")
    sp.add_argument("--target")
    sp.set_defaults(func=_cmd_lattice)

    sp = sub.add_parser("probe", help="energy-bound trend probe")
    sp.add_argument("--charge", required=True)
    sp.add_argument("--gram", help="JSON file with the charge-space Gram")
    sp.add_argument("--norm", type=int, default=1,
                    help="squared charge norm for rank-1 spaces")
    sp.add_argument("--order", type=int, default=0)
    sp.add_argument("--cutoffs", default="8,12,16")
    sp.add_argument("--modes", type=int, default=6)
    sp.add_argument("--slack", type=float, default=1.05)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("verify-paper", help="run the full verification suite")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--cap", type=int, default=512)
    sp.add_argument("--cutoffs", default="8,12,16")
    sp.set_defaults(func=_cmd_verify_full)

    return p


def main(argv=None) -> int:
    from .affine import HypothesisViolation
    from .errors import VerificationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CapExceeded, HypothesisViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
