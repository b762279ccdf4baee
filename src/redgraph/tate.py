"""Tate-curve specializations and equidistribution diagnostics.

A multiplicatively uniformized curve with parameter valuation L specializes
onto a circle of circumference L by reducing valuations mod L.  Torsion
orbits give finite samples whose empirical measures can be compared to the
rotation-invariant probability measure.  Both diagnostics come from one
sorted sweep over the merged atoms and density breakpoints of the two
measures, which yields the CDF difference as exact linear segments: the
Kolmogorov-Smirnov distance is its largest absolute value, and the circle
Wasserstein-1 distance (minimum over vertical CDF shifts) integrates it
around a Lebesgue median.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .bundles import PlaceTag
from .core import (
    GraphMeasure,
    PiecewisePoly,
    RationalLike,
    ZERO,
    as_rational,
    circle_graph,
    integrate,
)
from .errors import EmptySampleError, GraphMismatchError, MassImbalanceError, NotACircleError


@dataclass(frozen=True)
class TateCurve:
    """Multiplicative uniformization data: circle length and residue place."""

    ell: Fraction
    place: PlaceTag = PlaceTag(2)

    def __post_init__(self) -> None:
        if self.ell <= 0:
            raise ValueError(f"circle length must be positive, got {self.ell}")

    @classmethod
    def of(cls, ell: RationalLike, place: PlaceTag | None = None) -> "TateCurve":
        return cls(as_rational(ell), place or PlaceTag(2))

    def graph(self):
        return circle_graph(self.ell)


def specialize(curve: TateCurve, valuation: RationalLike) -> Fraction:
    """Reduce a parameter valuation mod the circle length into [0, length)."""
    v = as_rational(valuation)
    return v - (v // curve.ell) * curve.ell


@dataclass(frozen=True)
class OrbitSample:
    """Multiset of circle specializations with positive multiplicities."""

    ell: Fraction
    counts: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise EmptySampleError("an orbit sample needs at least one point")
        previous = None
        for offset, multiplicity in self.counts:
            if offset < 0 or offset >= self.ell:
                raise ValueError(f"offset {offset} outside [0, {self.ell})")
            if multiplicity < 1:
                raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
            if previous is not None and offset <= previous:
                raise ValueError("offsets must be strictly increasing")
            previous = offset

    @classmethod
    def of(cls, ell: RationalLike, points: Iterable[RationalLike]) -> "OrbitSample":
        """Accumulate repeated offsets into multiplicities."""
        length = as_rational(ell)
        acc: dict[Fraction, int] = {}
        for t in points:
            offset = as_rational(t)
            acc[offset] = acc.get(offset, 0) + 1
        return cls(length, tuple(sorted(acc.items())))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.counts)


def torsion_specializations(
    curve: TateCurve, n: int, exclude_identity: bool = False
) -> OrbitSample:
    """Specializations of the full n^2-torsion: offset b*L/n with weight n.

    Each of the n fibers over b = 0..n-1 contains n points, all landing at
    the same circle offset.  With ``exclude_identity`` the single identity
    point is removed, lowering the multiplicity at offset 0 by one.
    """
    if n < 1:
        raise ValueError(f"torsion order must be >= 1, got {n}")
    counts: list[tuple[Fraction, int]] = []
    for b in range(n):
        multiplicity = n
        if b == 0 and exclude_identity:
            multiplicity -= 1
        if multiplicity:
            counts.append((Fraction(b, n) * curve.ell, multiplicity))
    if not counts:
        raise EmptySampleError("excluding the identity leaves the 1-torsion empty")
    return OrbitSample(curve.ell, tuple(counts))


def random_specializations(curve: TateCurve, n: int, rng: random.Random) -> OrbitSample:
    """n^2 independent draws from the order-n grid {b*L/n}, for experiments.

    Deterministic given the generator state, which advances by one
    ``rng.randrange(n)`` per draw; the CLI derives one generator per n so
    rows do not depend on evaluation order.
    """
    if n < 1:
        raise ValueError(f"grid order must be >= 1, got {n}")
    hits = [0] * n
    for _ in range(n * n):
        hits[rng.randrange(n)] += 1
    return OrbitSample(
        curve.ell, tuple((Fraction(b, n) * curve.ell, m) for b, m in enumerate(hits) if m)
    )


def empirical_measure(sample: OrbitSample) -> GraphMeasure:
    """Probability measure on the circle with one atom per distinct offset."""
    graph = circle_graph(sample.ell)
    total = sample.total
    return GraphMeasure(
        graph, ((graph.point(0, t), Fraction(m, total)) for t, m in sample.counts)
    )


def _require_circle(measure: GraphMeasure) -> Fraction:
    graph = measure.graph
    if len(graph.vertices) != 1 or len(graph.edges) != 1 or not graph.is_loop(0):
        raise NotACircleError("this diagnostic requires a single-loop circle graph")
    return graph.edges[0].length


def _add_changes(measure: GraphMeasure, sign: int, atoms: list, ramps: list) -> None:
    """Append (sign, offset, weight) atoms and (sign, offset, change) density steps."""
    for point, weight in measure.discrete.items():
        atoms.append((sign, ZERO if point.is_vertex else point.offset, weight))
    previous = ZERO
    for a, _, value in measure.density_pieces(0):
        if value != previous:
            ramps.append((sign, a, value - previous))
        previous = value


def _cdf_difference(
    mu: GraphMeasure, target: GraphMeasure | None
) -> tuple[int, int, int, list[tuple[int, int, int, int]]]:
    """g = F_mu - F_target as exact linear segments, scaled to integers.

    Both CDFs are measured from the vertex.  Offsets are scaled by the
    common denominator X of the offsets and the length L, and values of g by
    the common denominator Y of the atom weights and of the density steps
    per unit of X*t, so G = Y*g jumps and slopes by integers at integer
    T = X*t.  One sorted pass over the merged atoms and density steps of the
    two measures then accumulates G on [0, X*L].  Returns
    (X*L, X, Y, segments) with segments (A, B, G(A+), G(B-)).  Default
    target: the rotation-invariant probability measure.
    """
    length = _require_circle(mu)
    if mu.total_mass != 1:
        raise MassImbalanceError("measure must be a probability measure")
    atoms: list[tuple[int, Fraction, Fraction]] = []
    ramps: list[tuple[int, Fraction, Fraction]] = []
    _add_changes(mu, 1, atoms, ramps)
    if target is None:
        ramps.append((-1, ZERO, 1 / length))
    else:
        if target.graph != mu.graph:
            raise GraphMismatchError("measures live on different circles")
        if target.total_mass != 1:
            raise MassImbalanceError("target must be a probability measure")
        _add_changes(target, -1, atoms, ramps)
    x_scale = lcm(length.denominator, *(t.denominator for _, t, _ in atoms + ramps))
    # a density step c changes the slope of G by c * Y / X per unit of X*t
    ramp_dens = [c.denominator * x_scale // gcd(c.numerator, x_scale) for _, _, c in ramps]
    y_scale = lcm(*(w.denominator for _, _, w in atoms), *ramp_dens)
    jumps: dict[int, int] = {}
    for sign, t, w in atoms:
        at = t.numerator * (x_scale // t.denominator)
        jumps[at] = jumps.get(at, 0) + sign * w.numerator * (y_scale // w.denominator)
    slopes: dict[int, int] = {}
    for (sign, t, c), den in zip(ramps, ramp_dens):
        at = t.numerator * (x_scale // t.denominator)
        step = sign * c.numerator // gcd(c.numerator, x_scale) * (y_scale // den)
        slopes[at] = slopes.get(at, 0) + step
    total = length.numerator * (x_scale // length.denominator)
    segments = []
    g = slope = 0
    marks = sorted(jumps.keys() | slopes.keys() | {0, total})
    for a, b in zip(marks, marks[1:]):
        g += jumps.get(a, 0)
        slope += slopes.get(a, 0)
        end = g + slope * (b - a)
        segments.append((a, b, g, end))
        g = end
    return total, x_scale, y_scale, segments


def _sup_norm(y_scale: int, segments: list[tuple[int, int, int, int]]) -> Fraction:
    return Fraction(max(max(abs(ga), abs(gb)) for _, _, ga, gb in segments), y_scale)


def kolmogorov_distance(mu: GraphMeasure, target: GraphMeasure | None = None) -> Fraction:
    """Exact sup-distance of circle CDFs, measured from the vertex.

    The CDF difference is linear on each segment of one merged breakpoint
    sweep, so the supremum is the largest |g| at a segment end, taken from
    inside the segment (left and right limits at every jump).  Default
    target: the rotation-invariant probability measure.
    """
    _, _, y_scale, segments = _cdf_difference(mu, target)
    return _sup_norm(y_scale, segments)


def _median_cost(
    total: int, x_scale: int, y_scale: int, segments: list[tuple[int, int, int, int]]
) -> Fraction:
    """min over s of the integral of |g - s|, at a Lebesgue median s of g.

    Arc length pushed forward by G puts a point mass on the value of every
    flat segment and spreads a segment of slope k evenly, at rate 1/|k|,
    over the values it sweeps.  Measures are kept as integers in units of
    1/K, K the lcm of the |k|; one sort of the masses and rate changes finds
    the median num/den, and the cost of every segment has a closed form.
    """
    steep = lcm(*{abs(gb - ga) // (b - a) for a, b, ga, gb in segments if ga != gb})
    masses: dict[int, int] = {}
    rates: dict[int, int] = {}
    for a, b, ga, gb in segments:
        if ga == gb:
            masses[ga] = masses.get(ga, 0) + steep * (b - a)
        else:
            lo, hi = min(ga, gb), max(ga, gb)
            rate = steep * (b - a) // (hi - lo)
            rates[lo] = rates.get(lo, 0) + rate
            rates[hi] = rates.get(hi, 0) - rate
    whole = steep * total  # the median is where twice the measure below reaches this
    below = rate = 0
    levels = sorted(masses.keys() | rates.keys())
    level = levels[0]
    for value in levels:
        reach = below + rate * (value - level)
        if 2 * reach >= whole:
            num, den = 2 * rate * level + whole - 2 * below, 2 * rate
            break
        below = reach + masses.get(value, 0)
        if 2 * below >= whole:
            num, den = value, 1
            break
        rate += rates.get(value, 0)
        level = value
    # a crossed segment costs ((hi - s)^2 + (s - lo)^2) / (2|k|), any other
    # one its width times |midpoint - s|; both in units of 1/(2 K den^2)
    cost = 0
    for a, b, ga, gb in segments:
        lo, hi = min(ga, gb), max(ga, gb)
        if lo * den < num < hi * den:
            cost += ((hi * den - num) ** 2 + (num - lo * den) ** 2) * (steep * (b - a) // (hi - lo))
        else:
            cost += (b - a) * abs((lo + hi) * den - 2 * num) * den * steep
    return Fraction(cost, 2 * steep * den * den * x_scale * y_scale)


def wasserstein_distance(mu: GraphMeasure, target: GraphMeasure | None = None) -> Fraction:
    """Exact circle Wasserstein-1 distance to ``target`` (default invariant).

    On the circle W1 is the minimum over vertical shifts s of the integral
    of |F_mu - F_target - s| (Rabin, Delon and Gousseau, 2011); the optimal
    s is a Lebesgue median of the CDF difference.  The segments of the
    difference come from one sorted integer sweep and the median from one
    more sort, O(n log n) in the number of breakpoints.
    """
    return _median_cost(*_cdf_difference(mu, target))


@dataclass(frozen=True)
class ConvergenceRow:
    """One report row: sample order, size, KS distance, test-integral errors."""

    n: int
    count: int
    ks: Fraction
    errors: tuple[Fraction, ...]
    w1: Fraction | None = None


def weak_convergence_report(
    samples: Sequence[tuple[int, OrbitSample]],
    test_functions: Sequence[tuple[str, PiecewisePoly]] = (),
    include_w1: bool = False,
) -> list[ConvergenceRow]:
    """Exact convergence diagnostics of empirical measures to the invariant one.

    For each (n, sample): the KS distance of the empirical measure to the
    invariant measure, and |integral of phi against the empirical measure
    minus its invariant average| for every test function phi.  KS and W1
    share one CDF sweep per row; the invariant averages are computed once
    per circle length.
    """
    averages: dict[Fraction, tuple[Fraction, ...]] = {}
    rows = []
    for n, sample in samples:
        mu = empirical_measure(sample)
        if sample.ell not in averages:
            uniform = GraphMeasure.uniform(mu.graph)
            averages[sample.ell] = tuple(integrate(phi, uniform) for _, phi in test_functions)
        errors = tuple(
            abs(integrate(phi, mu) - average)
            for (_, phi), average in zip(test_functions, averages[sample.ell])
        )
        total, x_scale, y_scale, segments = _cdf_difference(mu, None)
        w1 = _median_cost(total, x_scale, y_scale, segments) if include_w1 else None
        rows.append(ConvergenceRow(n, sample.total, _sup_norm(y_scale, segments), errors, w1))
    return rows
