"""Deterministic random instances shared by the property tests.

Everything takes an explicit ``random.Random`` so failures reproduce from
the seed in the test.  Graphs are always connected and may contain loops
and parallel edges; functions are genuinely continuous piecewise quadratics
built by interpolating random knot values.
"""

from __future__ import annotations

import random
from fractions import Fraction

from redgraph import GraphMeasure, MetrizedGraph, PiecewisePoly, circle_graph


def random_rational(rng: random.Random, lo: int = -4, hi: int = 4, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_positive_rational(rng: random.Random, max_num: int = 8, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_graph(rng: random.Random) -> MetrizedGraph:
    """Connected graph on 1..4 vertices; loops and multi-edges are common."""
    n = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((vertices[rng.randrange(i)], vertices[i], random_positive_rational(rng)))
    for _ in range(rng.randint(0, 2)):
        edges.append((rng.choice(vertices), rng.choice(vertices), random_positive_rational(rng)))
    if not edges:
        edges.append((vertices[0], vertices[0], random_positive_rational(rng)))
    return MetrizedGraph.of(vertices, edges)


def random_large_graph(rng: random.Random, n: int) -> MetrizedGraph:
    """Connected graph on ``n`` vertices (the tests use 30..60).

    A random tree on a core carries extra chords, parallel edges and loops.
    A three-edge pendant path hangs off the core and ends at the leaf
    ``v{n-1}``; vertex ``v{n-4}`` meets the rest of the graph by a single
    edge, and all its other edges are loops.
    """
    vertices = [f"v{i}" for i in range(n)]
    core, lonely, path = vertices[: n - 4], vertices[n - 4], vertices[n - 3 :]
    edges = [
        (core[rng.randrange(i)], core[i], random_positive_rational(rng))
        for i in range(1, len(core))
    ]
    # a copy of the first tree edge, reversed, so parallel edges always occur
    edges.append((core[1], core[0], random_positive_rational(rng)))
    for _ in range(n // 3):  # chords, which may be loops or parallel edges too
        edges.append((rng.choice(core), rng.choice(core), random_positive_rational(rng)))
    edges.append((rng.choice(core), lonely, random_positive_rational(rng)))
    edges += [(lonely, lonely, random_positive_rational(rng)) for _ in range(2)]
    for a, b in zip([rng.choice(core), *path], path):
        edges.append((a, b, random_positive_rational(rng)))
    rng.shuffle(edges)
    return MetrizedGraph.of(vertices, edges)


def fixed_topologies() -> list[MetrizedGraph]:
    """Hand-picked shapes: circle, wedge of loops, theta, path, loop+tail."""
    return [
        circle_graph(Fraction(5, 2)),
        MetrizedGraph.of(["a"], [("a", "a", Fraction(2)), ("a", "a", Fraction(3, 4))]),
        MetrizedGraph.of(
            ["a", "b"],
            [("a", "b", Fraction(1)), ("a", "b", Fraction(2)), ("b", "a", Fraction(1, 3))],
        ),
        MetrizedGraph.of(["a", "b", "c"], [("a", "b", Fraction(3)), ("b", "c", Fraction(1, 2))]),
        MetrizedGraph.of(["a", "b"], [("a", "b", Fraction(5, 3)), ("b", "b", Fraction(7, 5))]),
    ]


def _random_cuts(rng: random.Random, length: Fraction, max_cuts: int = 2) -> list[Fraction]:
    cuts = {Fraction(rng.randint(1, 7), 8) * length for _ in range(rng.randint(0, max_cuts))}
    return sorted(cuts)


def random_poly(rng: random.Random, graph: MetrizedGraph) -> PiecewisePoly:
    """Continuous piecewise quadratic: random knot values, random leading terms."""
    vertex_values = {v: random_rational(rng) for v in graph.vertices}
    pieces = {}
    for e, edge in enumerate(graph.edges):
        cuts = _random_cuts(rng, edge.length)
        bounds = [Fraction(0), *cuts, edge.length]
        knots = (
            [vertex_values[edge.source]]
            + [random_rational(rng) for _ in cuts]
            + [vertex_values[edge.target]]
        )
        coeffs = []
        for a, b, va, vb in zip(bounds, bounds[1:], knots, knots[1:]):
            c2 = random_rational(rng, -3, 3)
            c1 = (vb - va) / (b - a) - c2 * (a + b)
            c0 = va - c2 * a * a - c1 * a
            coeffs.append((c2, c1, c0))
        pieces[e] = (tuple(cuts), tuple(coeffs))
    return PiecewisePoly(graph, pieces)


def random_measure(rng: random.Random, graph: MetrizedGraph) -> GraphMeasure:
    """Signed measure: random vertex/interior Diracs plus random densities."""
    weights = []
    for v in graph.vertices:
        if rng.random() < 0.6:
            weights.append((graph.vertex_point(v), random_rational(rng)))
    for e, edge in enumerate(graph.edges):
        for _ in range(rng.randint(0, 2)):
            t = Fraction(rng.randint(1, 7), 8) * edge.length
            weights.append((graph.point(e, t), random_rational(rng)))
    densities = {}
    for e, edge in enumerate(graph.edges):
        cuts = _random_cuts(rng, edge.length)
        densities[e] = (tuple(cuts), tuple(random_rational(rng) for _ in range(len(cuts) + 1)))
    return GraphMeasure(graph, weights, densities)


def random_mass_zero_measure(rng: random.Random, graph: MetrizedGraph) -> GraphMeasure:
    mu = random_measure(rng, graph)
    anchor = graph.vertex_point(graph.vertices[0])
    return mu + GraphMeasure.dirac(graph, anchor, -mu.total_mass)


def random_probability_measure(rng: random.Random, graph: MetrizedGraph) -> GraphMeasure:
    weights = [
        (graph.vertex_point(v), random_positive_rational(rng))
        for v in graph.vertices
        if rng.random() < 0.5
    ]
    densities = {
        e: ((), (random_positive_rational(rng),)) for e in range(len(graph.edges))
    }
    mu = GraphMeasure(graph, weights, densities)
    return mu * (Fraction(1) / mu.total_mass)


def random_point(rng: random.Random, graph: MetrizedGraph):
    if rng.random() < 0.4:
        return graph.vertex_point(rng.choice(graph.vertices))
    e = rng.randrange(len(graph.edges))
    return graph.point(e, Fraction(rng.randint(1, 7), 8) * graph.edges[e].length)


def random_circle_probability(rng: random.Random, ell: Fraction) -> GraphMeasure:
    """Probability measure on a circle mixing atoms and a uniform slab."""
    graph = circle_graph(ell)
    weights = []
    for _ in range(rng.randint(1, 4)):
        t = Fraction(rng.randint(0, 7), 8) * ell
        weights.append((graph.point(0, t), random_positive_rational(rng)))
    densities = {}
    if rng.random() < 0.5:
        densities[0] = ((), (random_positive_rational(rng),))
    mu = GraphMeasure(graph, weights, densities)
    return mu * (Fraction(1) / mu.total_mass)
