"""The benchmark's only doorway into redgraph, one entry per public call.

``bind(rg, cli, tracer)`` returns a namespace of functions that take the
generated plain data (see ``gen``), build the value objects a call needs
(problems, specs, maps) and make the call.  With a tracer each entry runs
inside a span named in ``SPANS`` and hooks record size counters after the
span closes; without one the entries are the bare functions, so untraced
runs pay nothing for the doorway.

Span and counter names are the per-layer metric names of BENCHMARK.json: a
span ``x`` yields ``x.calls``, ``x.busy_s`` and ``x.p90_ms``.
"""

from __future__ import annotations

import contextlib
import io
import os
from types import SimpleNamespace

# CLI subcommand span suffix -> argv prefix
CLI_COMMANDS = {
    "equi_run": ("equi", "run"),
    "graph_solve": ("graph", "solve"),
    "phi_energy": ("phi-energy",),
    "bound_compute": ("bound", "compute"),
    "canheight": ("canheight",),
    "nt": ("nt",),
    "shilov_measure": ("shilov", "measure"),
}

# api attribute -> span name
SPANS = {
    "graph": "core.graph_build",
    "circle": "core.graph_build",
    "measure": "core.measure_arith",
    "uniform": "core.measure_arith",
    "mix": "core.measure_arith",
    "integrate": "core.integrate",
    "value_at": "core.evaluate",
    "solve_d2": "potential.solve_d2",
    "d2": "potential.d2",
    "energy": "potential.energy",
    "green": "potential.green",
    "phi_energy": "bundles.phi_energy",
    "neron_tate_bundle": "bundles.neron_tate_bundle",
    "nt_potential": "bundles.neron_tate_potential",
    "curvature": "bundles.curvature",
    "height_shift_variety": "bundles.height_shift_variety",
    "optimal_bump": "bounds.optimal_bump",
    "lower_bound": "bounds.lower_bound",
    "closed_form_bound": "bounds.closed_form_bound",
    "canonical_local_height": "canheight.canonical_local_height",
    "shilov_measure": "shilov.shilov_measure",
    "pushforward": "shilov.pushforward",
    "product_measure": "shilov.product_measure",
    "torsion_specializations": "tate.torsion_specializations",
    "random_specializations": "tate.random_specializations",
    "empirical_measure": "tate.empirical_measure",
    "kolmogorov_distance": "tate.kolmogorov_distance",
    "wasserstein_distance": "tate.wasserstein_distance",
    **{f"cli_{name}": f"cli.{name}" for name in CLI_COMMANDS},
}

# counters the hooks below record, by metric name
COUNTERS = (
    "potential.solve_d2.unknowns",
    "potential.solve_d2.out_bits_max",
    "canheight.canonical_local_height.iterations",
    "canheight.canonical_local_height.unconverged",
    "tate.kolmogorov_distance.atoms",
    "tate.wasserstein_distance.atoms",
    "tate.out_bits_max",
    "cli.bytes_out",
)


def bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0
    )


def point(graph, spec):
    """GraphPoint of a generated point spec."""
    if spec[0] == "v":
        return graph.vertex_point(spec[1])
    return graph.point(spec[0], spec[1])


def bind(rg, cli, tracer=None) -> SimpleNamespace:
    core, potential, bundles, bounds = rg.core, rg.potential, rg.bundles, rg.bounds
    canheight, shilov, tate = rg.canheight, rg.shilov, rg.tate

    def measure(graph, spec):
        atoms, densities = spec
        return core.GraphMeasure(graph, [(point(graph, p), w) for p, w in atoms], densities)

    def mix(terms):
        """sum of weight * measure over (weight, measure) pairs"""
        total = None
        for weight, mu in terms:
            total = mu * weight if total is None else total + mu * weight
        return total

    def solve_d2(graph, target, base_point=None, reference=None):
        base = None if base_point is None else point(graph, base_point)
        problem = potential.PoissonProblem(graph, target, base_point=base, reference=reference)
        return potential.solve_d2(problem)

    def optimal_bump(ell, intervals, coefficients=None):
        complement = bounds.IntervalComplement.of(ell, intervals)
        if coefficients is None:
            spec = bounds.BumpSpec.default(complement)
        else:
            spec = bounds.BumpSpec.of(complement, coefficients)
        return bounds.optimal_bump(spec)

    def run_cli(prefix):
        def call(args):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([*prefix, *args])
            return code, out.getvalue()

        return call

    functions = {
        "graph": core.MetrizedGraph.of,
        "circle": core.circle_graph,
        "measure": measure,
        "uniform": core.GraphMeasure.uniform,
        "mix": mix,
        "integrate": core.integrate,
        "value_at": lambda f, graph, p: f.value_at(point(graph, p)),
        "solve_d2": solve_d2,
        "d2": potential.d2,
        "energy": potential.energy,
        "green": lambda graph, pole, reference: potential.green(
            graph, point(graph, pole), reference
        ),
        "phi_energy": lambda graph, p, q: bundles.phi_energy(
            graph, point(graph, p), point(graph, q)
        ),
        "neron_tate_bundle": bundles.neron_tate_bundle,
        "nt_potential": bundles.neron_tate_potential,
        "curvature": bundles.curvature,
        "height_shift_variety": bundles.height_shift_variety,
        "optimal_bump": optimal_bump,
        "lower_bound": bounds.lower_bound,
        "closed_form_bound": lambda ell, intervals: bounds.closed_form_bound(
            bounds.IntervalComplement.of(ell, intervals)
        ),
        "canonical_local_height": lambda coefficients, p, x, max_iter: (
            canheight.canonical_local_height(canheight.PolyMap.of(coefficients, p), x, max_iter)
        ),
        "shilov_measure": lambda model: shilov.shilov_measure(shilov.SpecialFiberModel.of(*model)),
        "pushforward": shilov.pushforward,
        "product_measure": shilov.product_measure,
        "torsion_specializations": lambda ell, n: tate.torsion_specializations(
            tate.TateCurve.of(ell), n
        ),
        "random_specializations": lambda ell, n, rng: tate.random_specializations(
            tate.TateCurve.of(ell), n, rng
        ),
        "empirical_measure": tate.empirical_measure,
        "kolmogorov_distance": tate.kolmogorov_distance,
        "wasserstein_distance": tate.wasserstein_distance,
        **{f"cli_{name}": run_cli(prefix) for name, prefix in CLI_COMMANDS.items()},
    }
    if tracer is None:
        return SimpleNamespace(**functions)
    return SimpleNamespace(
        **{attr: tracer.wrap(SPANS[attr], fn, _POSTS.get(attr)) for attr, fn in functions.items()}
    )


def _solve_post(tracer, f, graph, *args, **kwargs):
    tracer.add("potential.solve_d2.unknowns", len(graph.edges) + len(graph.vertices))
    fractions = []
    for e in range(len(graph.edges)):
        breakpoints, coefficients = f.edge_pieces(e)
        fractions.extend(breakpoints)
        for triple in coefficients:
            fractions.extend(triple)
    tracer.peak("potential.solve_d2.out_bits_max", bits(fractions))


def _height_post(tracer, result, *args):
    tracer.add("canheight.canonical_local_height.iterations", result.iterations)
    tracer.add("canheight.canonical_local_height.unconverged", int(not result.converged))


def _sample_post(tracer, sample, *args):
    tracer.peak("tate.out_bits_max", bits(t for t, _ in sample.counts))


def _empirical_post(tracer, mu, *args):
    tracer.peak("tate.out_bits_max", bits(w for _, w in mu.discrete.items()))


def _distance_post(span):
    def post(tracer, value, mu, target=None):
        atoms = len(mu.discrete) + (0 if target is None else len(target.discrete))
        tracer.add(f"{span}.atoms", atoms)
        tracer.peak("tate.out_bits_max", bits([value]))

    return post


def _cli_post(tracer, result, args):
    written = len(result[1].encode("utf-8"))
    if "--out" in args:
        written += os.path.getsize(args[args.index("--out") + 1])
    tracer.add("cli.bytes_out", written)


_POSTS = {
    "solve_d2": _solve_post,
    "canonical_local_height": _height_post,
    "torsion_specializations": _sample_post,
    "random_specializations": _sample_post,
    "empirical_measure": _empirical_post,
    "kolmogorov_distance": _distance_post("tate.kolmogorov_distance"),
    "wasserstein_distance": _distance_post("tate.wasserstein_distance"),
    **{f"cli_{name}": _cli_post for name in CLI_COMMANDS},
}
