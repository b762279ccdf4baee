"""Command-line entry point.

Subcommands: graph solve, shilov measure, nt, phi-energy, equi run,
bound compute, canheight.  All rationals are read and written as "p/q"
strings; floats are display shadows and never feed back into computation.
Outputs are deterministic for a fixed invocation and seed.  Exit codes:
0 success, 1 domain error, 2 usage/IO/parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
from fractions import Fraction
from typing import Sequence

from .bounds import BumpSpec, IntervalComplement, closed_form_bound, lower_bound, optimal_bump, preset_complement
from .bundles import curvature, neron_tate_bundle, neron_tate_potential, phi_energy
from .canheight import PolyMap, canonical_local_height
from .core import GraphMeasure, GraphPoint, MetrizedGraph, rational_str
from .errors import RedgraphError
from .potential import PoissonProblem, solve_d2
from .shilov import SpecialFiberModel, normalized_measure, shilov_measure
from .tate import TateCurve, random_specializations, specialize, torsion_specializations, weak_convergence_report


class UsageError(argparse.ArgumentTypeError):
    """Malformed arguments: exit 2, from argparse or from a command handler."""


def _rational(text: str) -> Fraction:
    """Parse a rational "p/q" with a nonzero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected a rational p/q, got {text!r}") from None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(graph: MetrizedGraph, text: str) -> GraphPoint:
    if text.startswith("v:"):
        return graph.vertex_point(text[2:])
    edge_text, _, offset_text = text.partition(":")
    if not edge_text.isdecimal() or not offset_text:
        raise UsageError(f"point {text!r} is neither 'v:NAME' nor 'EDGE:OFFSET'")
    return graph.point(int(edge_text), _rational(offset_text))


def _parse_intervals(text: str) -> list[tuple[Fraction, Fraction]]:
    pairs = re.findall(r"\(([^,()]+),([^,()]+)\)", text)
    if not pairs:
        raise UsageError(f"could not parse intervals from {text!r}")
    return [(_rational(a.strip()), _rational(b.strip())) for a, b in pairs]


def _coefficient_override(text: str) -> tuple[int, Fraction]:
    """Parse ``I:VAL``: a 1-based interval index and a rational coefficient."""
    index_text, colon, value_text = text.partition(":")
    try:
        if colon:
            return int(index_text), Fraction(value_text)
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"expected I:VAL, integer I and rational VAL, got {text!r}")


def _cmd_graph_solve(config: argparse.Namespace) -> int:
    graph = MetrizedGraph.from_dict(_load_json(config.graph))
    target = GraphMeasure.from_dict(graph, _load_json(config.target))
    if config.normalize == "uniform":
        problem = PoissonProblem(graph, target, reference=GraphMeasure.uniform(graph))
    elif config.normalize.startswith("point:"):
        base = graph.vertex_point(config.normalize[len("point:"):])
        problem = PoissonProblem(graph, target, base_point=base)
    else:
        raise ValueError(f"unknown normalization {config.normalize!r}")
    _emit(solve_d2(problem).to_dict(), config.out)
    return 0


def _cmd_shilov_measure(config: argparse.Namespace) -> int:
    model = SpecialFiberModel.from_dict(_load_json(config.model))
    measure = shilov_measure(model)
    payload = {"weights": measure.to_dict(), "mass": rational_str(measure.mass)}
    if model.total_degree > 0:
        payload["normalized"] = normalized_measure(model).to_dict()
    _emit(payload, config.out)
    return 0


def _cmd_nt(config: argparse.Namespace) -> int:
    bundle = neron_tate_bundle(config.ell)
    payload = {
        "ell": rational_str(config.ell),
        "potential": bundle.twist.to_dict(),
        "curvature": curvature(bundle).to_dict(),
    }
    if config.eval is not None:
        t = specialize(TateCurve(config.ell), config.eval)
        value = bundle.twist.value_on_edge(0, t)
        payload["potential_at"] = {
            "t": rational_str(t),
            "value": rational_str(value),
            "float": float(value),
        }
    _emit(payload, config.out)
    return 0


def _cmd_phi_energy(config: argparse.Namespace) -> int:
    graph = MetrizedGraph.from_dict(_load_json(config.graph))
    value = phi_energy(graph, _parse_point(graph, config.p), _parse_point(graph, config.q))
    _emit({"energy": rational_str(value), "float": float(value)}, config.out)
    return 0


def _cmd_equi_run(config: argparse.Namespace) -> int:
    curve = TateCurve.of(config.ell)
    test_functions = [("nt", neron_tate_potential(curve.ell))]
    start = 2 if (config.exclude_identity and config.mode == "torsion") else 1
    if config.max_n < start:
        raise UsageError(f"--max-n {config.max_n} is below the first order {start}")
    orders = range(start, config.max_n + 1)
    if config.mode == "torsion":
        samples = [(n, torsion_specializations(curve, n, config.exclude_identity)) for n in orders]
    else:
        # one generator per order, so a row does not depend on the rows before it
        samples = [
            (n, random_specializations(curve, n, random.Random(config.seed * 1_000_003 + n)))
            for n in orders
        ]
    rows = weak_convergence_report(samples, test_functions, include_w1=config.w1)

    header = ["n", "count", "ks_num", "ks_den", "ks_float"]
    if config.w1:
        header.append("w1_float")
    header += [f"err_{name}" for name, _ in test_functions]
    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            record = [row.n, row.count, row.ks.numerator, row.ks.denominator, float(row.ks)]
            if config.w1:
                record.append(float(row.w1))
            record += [float(err) for err in row.errors]
            writer.writerow(record)
    return 0


def _cmd_bound_compute(config: argparse.Namespace) -> int:
    if config.preset is not None:
        complement = preset_complement(config.preset, config.ell)
    elif config.intervals is not None:
        complement = IntervalComplement.of(config.ell, _parse_intervals(config.intervals))
    else:
        raise ValueError("give either --preset or --intervals")
    spec = BumpSpec.default(complement)
    if config.c:
        coefficients = list(spec.coefficients)
        for index, override in config.c:
            if not 1 <= index <= len(coefficients):
                raise ValueError(f"coefficient index {index} out of range")
            coefficients[index - 1] = override
        spec = BumpSpec(complement, tuple(coefficients))
        value = lower_bound(neron_tate_bundle(complement.ell), optimal_bump(spec))
    else:
        value = closed_form_bound(complement)
    _emit(
        {
            "bound": rational_str(value),
            "bound_num": value.numerator,
            "bound_den": value.denominator,
            "units": "log Nv",
        },
        config.out,
    )
    return 0


def _cmd_canheight(config: argparse.Namespace) -> int:
    coefficients = [_rational(part.strip()) for part in config.poly.split(",")]
    poly = PolyMap.of(coefficients, config.p)
    result = canonical_local_height(poly, config.x, config.max_iter)
    _emit(
        {
            "value": rational_str(result.value),
            "float": float(result.value),
            "converged": result.converged,
            "iterations": result.iterations,
            "units": f"log {config.p}",
        },
        config.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redgraph",
        description="Exact potential theory, equidistribution diagnostics and "
        "height bounds on reduction graphs.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph = top.add_parser("graph", help="metrized-graph operations")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    solve = graph_sub.add_parser("solve", help="solve d2(f) = target exactly")
    solve.add_argument("--graph", required=True, help="graph descriptor JSON")
    solve.add_argument("--target", required=True, help="target measure JSON (mass 0)")
    solve.add_argument(
        "--normalize",
        default="uniform",
        help="'uniform' (zero average against arc length) or 'point:VERTEX'",
    )
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_graph_solve)

    shilov = top.add_parser("shilov", help="special-fiber measures")
    shilov_sub = shilov.add_subparsers(dest="subcommand", required=True)
    measure = shilov_sub.add_parser("measure", help="Dirac weights of a model")
    measure.add_argument("--model", required=True, help="model descriptor JSON")
    measure.add_argument("--out", default=None)
    measure.set_defaults(func=_cmd_shilov_measure)

    nt = top.add_parser("nt", help="invariant-curvature circle bundle")
    nt.add_argument("--ell", type=_rational, required=True, help="circle length, e.g. 5/1")
    nt.add_argument("--eval", type=_rational, default=None, help="evaluate the potential at t")
    nt.add_argument("--out", default=None)
    nt.set_defaults(func=_cmd_nt)

    phi = top.add_parser("phi-energy", help="pair potential energy between two points")
    phi.add_argument("--graph", required=True)
    phi.add_argument("--p", required=True, help="'v:NAME' or 'EDGE:OFFSET'")
    phi.add_argument("--q", required=True, help="'v:NAME' or 'EDGE:OFFSET'")
    phi.add_argument("--out", default=None)
    phi.set_defaults(func=_cmd_phi_energy)

    equi = top.add_parser("equi", help="equidistribution experiments")
    equi_sub = equi.add_subparsers(dest="subcommand", required=True)
    run = equi_sub.add_parser("run", help="KS/Wasserstein report over torsion orders")
    run.add_argument("--ell", type=_rational, required=True)
    run.add_argument("--max-n", type=int, required=True)
    run.add_argument("--seed", type=int, default=0, help="seed for --mode random")
    run.add_argument(
        "--exclude-identity",
        action="store_true",
        help="drop the identity point from torsion samples (report starts at n=2)",
    )
    run.add_argument("--mode", choices=("torsion", "random"), default="torsion")
    run.add_argument("--w1", action="store_true", help="add an exact Wasserstein-1 column")
    run.add_argument("--out", required=True, help="CSV report path")
    run.set_defaults(func=_cmd_equi_run)

    bound = top.add_parser("bound", help="height lower bounds")
    bound_sub = bound.add_subparsers(dest="subcommand", required=True)
    compute = bound_sub.add_parser("compute", help="bump-function lower bound")
    compute.add_argument("--ell", type=_rational, required=True)
    compute.add_argument("--preset", choices=("neutral", "neron", "point"), default=None)
    compute.add_argument("--intervals", default=None, help="e.g. \"[(0/1,1/1),(3/1,4/1)]\"")
    compute.add_argument(
        "--c",
        type=_coefficient_override,
        action="append",
        default=[],
        metavar="I:VAL",
        help="override coefficient of interval I (1-based), e.g. 1:1/4",
    )
    compute.add_argument("--out", default=None)
    compute.set_defaults(func=_cmd_bound_compute)

    can = top.add_parser("canheight", help="escape-rate canonical local height")
    can.add_argument("--poly", required=True, help="coefficients, leading first: '1,0,0'")
    can.add_argument("--p", type=int, required=True, help="prime of the place")
    can.add_argument("--x", type=_rational, required=True)
    can.add_argument("--max-iter", type=int, default=8)
    can.add_argument("--out", default=None)
    can.set_defaults(func=_cmd_canheight)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    config = build_parser().parse_args(argv)
    try:
        return config.func(config)
    except RedgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
