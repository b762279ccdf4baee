"""Potential theory on metrized graphs.

``d2`` is the distributional second derivative: on each quadratic piece it
contributes the constant density f'', and at every vertex or interior
breakpoint a Dirac whose weight is the sum of the outgoing slopes of f
there.  Its total mass is always zero, and the sign convention is pinned by
the exact identity ``integrate(f, d2(f)) == -energy(f)``.

``solve_d2`` inverts ``d2`` on mass-zero targets.  The density and interior
Dirac jumps fix each edge up to a linear term: a particular solution with end
value P_e and end slope S_e, plus phi_s + s_e*t.  Value matching at the far
end gives the slope in closed form, s_e = (phi_t - phi_s - P_e)/L_e, and
flux balance at the vertices becomes the weighted graph Laplacian on the
vertex values phi, with conductance 1/L_e per edge.  Loops drop out of the
matrix and only add S_e to the right-hand side.  The kernel is the
constants: ``graph.vertices[0]`` is pinned to 0, the remaining (V-1)-square
symmetric positive-definite system is solved by exact sparse elimination
in minimum-degree order, and the requested normalization is applied last.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    SOURCE_END,
    ZERO,
    GraphMeasure,
    GraphPoint,
    MetrizedGraph,
    PiecewisePoly,
    _quad_slope,
    integrate,
)
from .errors import GraphMismatchError, MassImbalanceError


def d2(f: PiecewisePoly) -> GraphMeasure:
    """Distributional second derivative of ``f``; total mass is exactly 0."""
    graph = f.graph
    weights: dict[GraphPoint, Fraction] = {}
    densities = {}
    for e in range(len(graph.edges)):
        bk, cs = f.edge_pieces(e)
        densities[e] = (bk, tuple(2 * coeffs[0] for coeffs in cs))
        for i, x in enumerate(bk):
            jump = _quad_slope(cs[i + 1], x) - _quad_slope(cs[i], x)
            if jump:
                point = graph.point(e, x)
                weights[point] = weights.get(point, ZERO) + jump
    for v in graph.vertices:
        outgoing = ZERO
        for e, end in graph.incident_ends(v):
            bk, cs = f.edge_pieces(e)
            if end == SOURCE_END:
                outgoing += _quad_slope(cs[0], ZERO)
            else:
                outgoing -= _quad_slope(cs[-1], graph.edges[e].length)
        if outgoing:
            point = graph.vertex_point(v)
            weights[point] = weights.get(point, ZERO) + outgoing
    return GraphMeasure(graph, weights, densities)


def energy(f: PiecewisePoly) -> Fraction:
    """Dirichlet energy: the exact integral of (f')^2 over the graph."""
    total = ZERO
    for e in range(len(f.graph.edges)):
        for a, b, (c2, c1, _) in f.pieces_with_bounds(e):
            # (2*c2*t + c1)^2 integrated over [a, b]
            total += (
                4 * c2 * c2 * (b**3 - a**3) / 3
                + 2 * c2 * c1 * (b**2 - a**2)
                + c1 * c1 * (b - a)
            )
    return total


@dataclass(frozen=True)
class PoissonProblem:
    """Find f with ``d2(f) == target`` pinned by one normalization.

    Exactly one of ``base_point`` (f vanishes there) or ``reference`` (a
    probability measure against which f integrates to zero) must be given.
    The target must have total mass zero, or no solution exists.
    """

    graph: MetrizedGraph
    target: GraphMeasure
    base_point: GraphPoint | None = None
    reference: GraphMeasure | None = None

    def __post_init__(self) -> None:
        if (self.base_point is None) == (self.reference is None):
            raise ValueError("give exactly one of base_point or reference")
        if self.target.graph != self.graph:
            raise GraphMismatchError("target measure lives on a different graph")
        if self.target.total_mass != 0:
            raise MassImbalanceError(
                f"target must have total mass 0, got {self.target.total_mass}"
            )
        if self.base_point is not None and not self.graph.contains_point(self.base_point):
            raise ValueError(f"base point {self.base_point!r} is not on the graph")
        if self.reference is not None:
            if self.reference.graph != self.graph:
                raise GraphMismatchError("reference measure lives on a different graph")
            if self.reference.total_mass != 1:
                raise MassImbalanceError("reference measure must be a probability measure")


@dataclass(frozen=True)
class _EdgeParticular:
    """Particular solution on one edge with value 0 and slope 0 at the source."""

    breakpoints: tuple[Fraction, ...]
    coeffs: tuple[tuple[Fraction, Fraction, Fraction], ...]
    end_value: Fraction
    end_slope: Fraction


def _particular_solution(graph: MetrizedGraph, target: GraphMeasure, e: int) -> _EdgeParticular:
    length = graph.edges[e].length
    density_bk, density_vals = target.density(e)
    jumps = {p.offset: w for p, w in target.discrete.items() if p.edge == e}
    breakpoints = sorted(set(density_bk) | set(jumps))
    value = slope = ZERO
    coeffs = []
    bounds = [ZERO, *breakpoints, length]
    for a, b in zip(bounds, bounds[1:]):
        if a in jumps:
            slope += jumps[a]
        rho = density_vals[bisect_right(density_bk, a)]
        # on [a, b]: value + slope*(t - a) + rho/2*(t - a)^2, expanded in t
        coeffs.append((rho / 2, slope - rho * a, value - slope * a + rho * a * a / 2))
        step = b - a
        value += slope * step + rho * step * step / 2
        slope += rho * step
    return _EdgeParticular(tuple(breakpoints), tuple(coeffs), value, slope)


def _eliminate(
    diag: list[Fraction], off: list[dict[int, Fraction]], rhs: list[Fraction], unknowns: range
) -> list[Fraction]:
    """Exact sparse elimination of a symmetric positive-definite system.

    ``off[i]`` holds row i's nonzero off-diagonal entries among ``unknowns``;
    every other index reads 0 in the solution.  Pivots are taken in
    minimum-degree order, ties broken by index.  The inputs are consumed.
    """
    remaining = set(unknowns)
    steps = []
    while remaining:
        k = min(remaining, key=lambda i: (len(off[i]), i))
        remaining.remove(k)
        row = list(off[k].items())
        for n, (i, a_ik) in enumerate(row):
            del off[i][k]
            factor = a_ik / diag[k]
            diag[i] -= factor * a_ik
            rhs[i] -= factor * rhs[k]
            for j, a_kj in row[n + 1:]:
                off[i][j] = off[j][i] = off[i].get(j, ZERO) - factor * a_kj
        steps.append((k, row))
    x = [ZERO] * len(diag)
    for k, row in reversed(steps):
        x[k] = (rhs[k] - sum(a * x[j] for j, a in row)) / diag[k]
    return x


def solve_d2(problem: PoissonProblem) -> PiecewisePoly:
    """Solve ``d2(f) == target`` exactly with the requested normalization.

    The returned function satisfies the round-trip identity
    ``d2(solve_d2(problem)) == problem.target`` with exact equality.
    """
    graph, target = problem.graph, problem.target
    index = {v: i for i, v in enumerate(graph.vertices)}
    particulars = [_particular_solution(graph, target, e) for e in range(len(graph.edges))]
    # flux balance at v, once s_e = (phi_t - phi_s - P_e)/L_e is substituted:
    # sum over non-loop edges of (phi_v - phi_other)/L_e == rhs[v]
    diag = [ZERO] * len(index)
    off: list[dict[int, Fraction]] = [{} for _ in index]
    rhs = [-target.discrete.weight(graph.vertex_point(v)) for v in graph.vertices]
    for rec, part in zip(graph.edges, particulars):
        s, t = index[rec.source], index[rec.target]
        rhs[t] -= part.end_slope
        if s == t:
            continue
        conductance = 1 / rec.length
        drift = part.end_value * conductance
        rhs[s] -= drift
        rhs[t] += drift
        for a, b in ((s, t), (t, s)):
            diag[a] += conductance
            if b:  # vertex 0 is pinned to 0 and leaves the system
                off[a][b] = off[a].get(b, ZERO) - conductance
    phi = _eliminate(diag, off, rhs, range(1, len(index)))

    pieces = {}
    for e, rec in enumerate(graph.edges):
        part = particulars[e]
        base = phi[index[rec.source]]
        slope = (phi[index[rec.target]] - base - part.end_value) / rec.length
        pieces[e] = (
            part.breakpoints,
            tuple((c2, c1 + slope, c0 + base) for c2, c1, c0 in part.coeffs),
        )
    f = PiecewisePoly(graph, pieces)

    if problem.base_point is not None:
        return f - f.value_at(problem.base_point)
    return f - integrate(f, problem.reference)


def green(graph: MetrizedGraph, pole: GraphPoint, reference: GraphMeasure) -> PiecewisePoly:
    """Potential of ``pole`` against the probability measure ``reference``.

    Returns g with ``d2(g) == reference - dirac(pole)`` and integral of g
    against ``reference`` equal to zero.
    """
    target = reference - GraphMeasure.dirac(graph, pole)
    return solve_d2(PoissonProblem(graph, target, reference=reference))
