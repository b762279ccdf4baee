"""Second derivative, Poisson solver, Green functions, Dirichlet energy.

The frozen expected values are derived by hand: differentiating or
integrating explicit quadratics piece by piece.  Randomized laws are run
over the fixed topologies (loops and parallel edges included) plus fresh
random graphs.
"""

import random
from fractions import Fraction as F

import pytest

from redgraph import (
    GraphMeasure,
    GraphMismatchError,
    MassImbalanceError,
    MetrizedGraph,
    PiecewisePoly,
    PoissonProblem,
    circle_graph,
    d2,
    energy,
    green,
    integrate,
    solve_d2,
    total_mass,
)
from generators import (
    fixed_topologies,
    random_graph,
    random_large_graph,
    random_mass_zero_measure,
    random_point,
    random_poly,
    random_probability_measure,
    random_rational,
)


def invariant_potential(ell):
    """t^2/(2L) - t/2 + L/12 on the circle of circumference L."""
    g = circle_graph(ell)
    return PiecewisePoly(g, {0: ((), ((F(1, 2) / ell, F(-1, 2), ell / 12),))})


def bump(graph, a, b, c):
    """c*(t-a)*(b-t) on (a, b) inside the circle's single edge, 0 elsewhere."""
    length = graph.edges[0].length
    cuts, coeffs = [], []
    if a > 0:
        cuts.append(a)
        coeffs.append((F(0), F(0), F(0)))
    coeffs.append((-c, c * (a + b), -c * a * b))
    if b < length:
        cuts.append(b)
        coeffs.append((F(0), F(0), F(0)))
    return PiecewisePoly(graph, {0: (tuple(cuts), tuple(coeffs))})


def test_d2_of_invariant_potential():
    # second derivative 1/L on the edge; outgoing slopes at the vertex are
    # -1/2 (source end) and -(2*(1/2L)*L - 1/2) = -1/2 (target end).
    for ell in (F(1), F(5), F(7, 3)):
        g = circle_graph(ell)
        measured = d2(invariant_potential(ell))
        expected = GraphMeasure(
            g, [(g.vertex_point("v0"), -1)], {0: ((), (1 / ell,))}
        )
        assert measured == expected


def test_d2_of_constant_is_zero():
    g = fixed_topologies()[2]
    assert d2(PiecewisePoly.constant(g, F(9, 7))) == GraphMeasure(g)


def test_d2_of_bump():
    # phi = c(t-a)(b-t): phi'' = -2c; slopes jump by +c(b-a) at both a and b.
    ell, a, b, c = F(10), F(2), F(7), F(3, 4)
    g = circle_graph(ell)
    measured = d2(bump(g, a, b, c))
    expected = GraphMeasure(
        g,
        [(g.point(0, a), c * (b - a)), (g.point(0, b), c * (b - a))],
        {0: ((a, b), (F(0), -2 * c, F(0)))},
    )
    assert measured == expected
    assert total_mass(measured) == 0


def test_d2_mass_zero_randomized():
    rng = random.Random(101)
    graphs = fixed_topologies() + [random_graph(rng) for _ in range(5)]
    count = 0
    for g in graphs:
        for _ in range(12):
            assert total_mass(d2(random_poly(rng, g))) == 0
            count += 1
    assert count >= 100


def test_solve_reproduces_invariant_potential():
    rng = random.Random(7)
    for _ in range(5):
        ell = F(rng.randint(1, 40), rng.randint(1, 12))
        g = circle_graph(ell)
        uniform = GraphMeasure.constant_density(g, 1 / ell)
        target = uniform - GraphMeasure.dirac(g, g.vertex_point("v0"))
        f = solve_d2(PoissonProblem(g, target, reference=uniform))
        assert f == invariant_potential(ell)
        assert f.edge_pieces(0) == ((), ((F(1, 2) / ell, F(-1, 2), ell / 12),))


def test_solve_zero_target_gives_zero():
    g = fixed_topologies()[1]
    f = solve_d2(PoissonProblem(g, GraphMeasure(g), base_point=g.vertex_point("a")))
    assert f == PiecewisePoly.zero(g)


def test_solve_path_graph_by_hand():
    # d2(f) = delta_b - delta_a on a segment forces slope -1 throughout:
    # outgoing slope at a is f'(0) = -1 and at b it is -f'(L) = +1.
    g = MetrizedGraph.of(["a", "b"], [("a", "b", F(9, 2))])
    target = GraphMeasure(g, [(g.vertex_point("b"), 1), (g.vertex_point("a"), -1)])
    f = solve_d2(PoissonProblem(g, target, base_point=g.vertex_point("a")))
    assert f.edge_pieces(0) == ((), ((F(0), F(-1), F(0)),))


def test_round_trip_randomized():
    rng = random.Random(202)
    graphs = fixed_topologies() + [random_graph(rng) for _ in range(4)]
    for g in graphs:
        for _ in range(4):
            rho = random_mass_zero_measure(rng, g)
            f = solve_d2(PoissonProblem(g, rho, base_point=g.vertex_point(g.vertices[0])))
            assert d2(f) == rho


def test_integration_by_parts_randomized():
    rng = random.Random(303)
    graphs = fixed_topologies() + [random_graph(rng) for _ in range(4)]
    for g in graphs:
        for _ in range(6):
            f = random_poly(rng, g)
            assert integrate(f, d2(f)) == -energy(f)


def test_green_on_circle_is_invariant_potential():
    ell = F(11, 4)
    g = circle_graph(ell)
    uniform = GraphMeasure.constant_density(g, 1 / ell)
    assert green(g, g.vertex_point("v0"), uniform) == invariant_potential(ell)


def test_green_with_self_pole_is_zero():
    g = fixed_topologies()[3]
    y = g.vertex_point("b")
    assert green(g, y, GraphMeasure.dirac(g, y)) == PiecewisePoly.zero(g)


def test_green_symmetry_fixed_pair():
    g = circle_graph(1)
    uniform = GraphMeasure.constant_density(g, 1)
    x, y = g.point(0, F(1, 4)), g.point(0, F(2, 3))
    gx = green(g, x, uniform)
    gy = green(g, y, uniform)
    assert gx.value_at(y) == gy.value_at(x)


def test_green_symmetry_randomized():
    rng = random.Random(404)
    graphs = fixed_topologies() + [random_graph(rng) for _ in range(3)]
    for g in graphs:
        mu = random_probability_measure(rng, g)
        for _ in range(3):
            x, y = random_point(rng, g), random_point(rng, g)
            assert green(g, x, mu).value_at(y) == green(g, y, mu).value_at(x)


def large_graph_targets(rng, g):
    """Mass-zero targets of three kinds: vertex Diracs, interior Diracs, densities."""
    leaf, lonely = g.vertex_point(g.vertices[-1]), g.vertex_point(g.vertices[-4])
    vertex = GraphMeasure(g, [(leaf, 1), (lonely, -1)])
    interior_points = [
        g.point(e, F(rng.randint(1, 7), 8) * g.edges[e].length)
        for e in rng.sample(range(len(g.edges)), 4)
    ]
    weights = [random_rational(rng) for _ in interior_points[1:]]
    interior = GraphMeasure(g, list(zip(interior_points, [-sum(weights), *weights])))
    densities = {
        e: ((g.edges[e].length / 2,), (random_rational(rng), random_rational(rng)))
        for e in rng.sample(range(len(g.edges)), len(g.edges) // 2)
    }
    density = GraphMeasure(g, [], densities)
    density -= GraphMeasure.uniform(g) * density.total_mass
    return vertex, interior, density


def test_large_graph_property_suite():
    # graphs with V=30..60 and loops, parallel edges, a pendant path and a
    # vertex whose other edges are all loops
    rng = random.Random(707)
    for n in (30, 38, 46, 53, 60):
        g = random_large_graph(rng, n)
        mu = random_probability_measure(rng, g)
        base = random_point(rng, g)
        for rho in large_graph_targets(rng, g):
            f_point = solve_d2(PoissonProblem(g, rho, base_point=base))
            f_measure = solve_d2(PoissonProblem(g, rho, reference=mu))
            assert d2(f_point) == rho and d2(f_measure) == rho
            assert f_point.value_at(base) == 0 and integrate(f_measure, mu) == 0
            assert integrate(f_point, d2(f_point)) == -energy(f_point)
        for _ in range(2):
            x, y = random_point(rng, g), random_point(rng, g)
            assert green(g, x, mu).value_at(y) == green(g, y, mu).value_at(x)


def test_solutions_unique_up_to_normalization():
    rng = random.Random(505)
    g = fixed_topologies()[2]
    rho = random_mass_zero_measure(rng, g)
    base = g.vertex_point(g.vertices[0])
    f_point = solve_d2(PoissonProblem(g, rho, base_point=base))
    assert solve_d2(PoissonProblem(g, rho, base_point=base)) == f_point
    mu = random_probability_measure(rng, g)
    f_measure = solve_d2(PoissonProblem(g, rho, reference=mu))
    difference = f_point - f_measure
    assert difference == PiecewisePoly.constant(g, difference.value_at(base))
    assert integrate(f_measure, mu) == 0


def test_energy_of_invariant_potential():
    # (f')^2 = (t/L - 1/2)^2 integrates to L/12 over [0, L].
    for ell in (F(1), F(4), F(9, 2)):
        assert energy(invariant_potential(ell)) == ell / 12


def test_energy_of_constant_is_zero():
    g = fixed_topologies()[4]
    assert energy(PiecewisePoly.constant(g, F(17, 3))) == 0


def test_energy_of_bump():
    # (d/dt) c(t-a)(b-t) = c(a+b-2t); its square integrates to c^2 (b-a)^3 / 3.
    ell, a, b, c = F(8), F(1), F(6), F(2, 5)
    g = circle_graph(ell)
    assert energy(bump(g, a, b, c)) == c * c * (b - a) ** 3 / 3


def test_energy_riemann_cross_check():
    rng = random.Random(606)
    g = fixed_topologies()[0]
    f = random_poly(rng, g)
    exact = float(energy(f))
    steps = 20000
    approx = 0.0
    for e in range(len(g.edges)):
        for a, b, (c2, c1, _) in f.pieces_with_bounds(e):
            h = float(b - a) / steps
            for k in range(steps):
                t = float(a) + (k + 0.5) * h
                slope = 2 * float(c2) * t + float(c1)
                approx += slope * slope * h
    assert abs(exact - approx) < 1e-5 * max(1.0, abs(exact))


def test_poisson_problem_validation():
    g = circle_graph(3)
    uniform = GraphMeasure.uniform(g)
    delta = GraphMeasure.dirac(g, g.vertex_point("v0"))
    with pytest.raises(MassImbalanceError):
        PoissonProblem(g, delta, base_point=g.vertex_point("v0"))
    with pytest.raises(ValueError, match="exactly one"):
        PoissonProblem(g, delta - uniform)
    with pytest.raises(ValueError, match="exactly one"):
        PoissonProblem(
            g, delta - uniform, base_point=g.vertex_point("v0"), reference=uniform
        )
    with pytest.raises(MassImbalanceError):
        PoissonProblem(g, delta - uniform, reference=uniform * 2)
    other = circle_graph(4)
    with pytest.raises(GraphMismatchError):
        PoissonProblem(other, delta - uniform, reference=uniform)
