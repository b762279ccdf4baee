"""Specialization, torsion orbits, exact KS and circle Wasserstein."""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

from redgraph import (
    EmptySampleError,
    GraphMeasure,
    MassImbalanceError,
    NotACircleError,
    MetrizedGraph,
    OrbitSample,
    PiecewisePoly,
    TateCurve,
    circle_graph,
    empirical_measure,
    kolmogorov_distance,
    neron_tate_potential,
    random_specializations,
    specialize,
    torsion_specializations,
    wasserstein_distance,
    weak_convergence_report,
)
from generators import random_circle_probability


def grid_measure(ell, n):
    """Uniform atoms at the n-th grid {b*ell/n}."""
    g = circle_graph(ell)
    return GraphMeasure(g, ((g.point(0, F(b, n) * ell), F(1, n)) for b in range(n)))


def test_specialize_examples():
    c = TateCurve.of(F(5))
    assert specialize(c, 0) == 0
    assert specialize(c, 7) == 2
    assert specialize(c, -1) == 4
    assert specialize(c, "13/3") == F(13, 3)


def test_specialize_is_periodic():
    rng = random.Random(3)
    c = TateCurve.of(F(7, 2))
    for _ in range(25):
        v = F(rng.randint(-40, 40), rng.randint(1, 6))
        assert specialize(c, v + c.ell) == specialize(c, v)
        assert 0 <= specialize(c, v) < c.ell


def test_torsion_enumerations():
    c = TateCurve.of(F(5))
    assert torsion_specializations(c, 1).counts == ((F(0), 1),)
    assert torsion_specializations(c, 2).counts == ((F(0), 2), (F(5, 2), 2))
    thirds = torsion_specializations(TateCurve.of(F(3)), 3)
    assert thirds.counts == ((F(0), 3), (F(1), 3), (F(2), 3))
    for n in (1, 2, 3, 8, 11):
        assert torsion_specializations(c, n).total == n * n
    with pytest.raises(ValueError):
        torsion_specializations(c, 0)


def test_torsion_exclude_identity():
    c = TateCurve.of(F(4))
    sample = torsion_specializations(c, 2, exclude_identity=True)
    assert sample.counts == ((F(0), 1), (F(2), 2))
    assert sample.total == 3
    with pytest.raises(EmptySampleError):
        torsion_specializations(c, 1, exclude_identity=True)


def test_orbit_sample_validation():
    with pytest.raises(EmptySampleError):
        OrbitSample(F(5), ())
    with pytest.raises(ValueError):
        OrbitSample(F(5), ((F(5), 1),))
    with pytest.raises(ValueError):
        OrbitSample(F(5), ((F(1), 0),))
    sample = OrbitSample.of(F(5), [F(1), F(1), F(2)])
    assert sample.counts == ((F(1), 2), (F(2), 1))


def test_empirical_measure():
    c = TateCurve.of(F(5))
    mu = empirical_measure(torsion_specializations(c, 2))
    g = circle_graph(F(5))
    assert mu.total_mass == 1
    assert mu == GraphMeasure(
        g, [(g.vertex_point("v0"), F(1, 2)), (g.point(0, F(5, 2)), F(1, 2))]
    )
    single = empirical_measure(OrbitSample.of(F(5), [F(3)]))
    assert single == GraphMeasure.dirac(g, g.point(0, 3))


def test_ks_distance_examples():
    ell = F(5)
    g = circle_graph(ell)
    assert kolmogorov_distance(GraphMeasure.constant_density(g, 1 / ell)) == 0
    assert kolmogorov_distance(GraphMeasure.dirac(g, g.vertex_point("v0"))) == 1
    for n in (1, 2, 3, 7, 50):
        assert kolmogorov_distance(grid_measure(ell, n)) == F(1, n)


def test_ks_distance_of_torsion_orbits():
    c = TateCurve.of(F(7, 3))
    for n in range(1, 25):
        mu = empirical_measure(torsion_specializations(c, n))
        ks = kolmogorov_distance(mu)
        assert ks <= F(1, n)
        if n >= 2:
            assert ks == F(1, n)


def test_ks_requires_circle_and_probability():
    path = MetrizedGraph.of(["a", "b"], [("a", "b", 1)])
    with pytest.raises(NotACircleError):
        kolmogorov_distance(GraphMeasure.uniform(path))
    g = circle_graph(2)
    with pytest.raises(MassImbalanceError):
        kolmogorov_distance(GraphMeasure.dirac(g, g.vertex_point("v0"), 2))
    with pytest.raises(MassImbalanceError):
        kolmogorov_distance(GraphMeasure.uniform(g), GraphMeasure.uniform(g) * 3)


def test_ks_zero_iff_equal_and_triangle_inequality():
    rng = random.Random(29)
    ell = F(3)
    for _ in range(40):
        mu = random_circle_probability(rng, ell)
        nu = random_circle_probability(rng, ell)
        rho = random_circle_probability(rng, ell)
        assert kolmogorov_distance(mu, mu) == 0
        d_mu_nu = kolmogorov_distance(mu, nu)
        assert d_mu_nu == kolmogorov_distance(nu, mu)
        assert d_mu_nu <= kolmogorov_distance(mu, rho) + kolmogorov_distance(rho, nu)


def test_wasserstein_examples():
    ell = F(5)
    g = circle_graph(ell)
    assert wasserstein_distance(GraphMeasure.constant_density(g, 1 / ell)) == 0
    # one atom against the invariant measure: transport cost ell/4
    assert wasserstein_distance(GraphMeasure.dirac(g, g.vertex_point("v0"))) == ell / 4
    # rotation invariance of the cost: any single atom gives the same value
    assert wasserstein_distance(GraphMeasure.dirac(g, g.point(0, F(7, 4)))) == ell / 4
    # grid of order n: n sawtooth segments, each costing ell/(4n^2)
    for n in (2, 3, 8):
        assert wasserstein_distance(grid_measure(ell, n)) == ell / (4 * n)


def test_wasserstein_between_singletons():
    # two atoms at circle distance d: cost is min(d, ell - d)
    ell = F(6)
    g = circle_graph(ell)
    a = GraphMeasure.dirac(g, g.point(0, 1))
    b = GraphMeasure.dirac(g, g.point(0, 3))
    assert wasserstein_distance(a, b) == 2
    c = GraphMeasure.dirac(g, g.point(0, F(11, 2)))
    assert wasserstein_distance(a, c) == F(3, 2)


def test_wasserstein_triangle_and_symmetry_randomized():
    rng = random.Random(31)
    ell = F(2)
    for _ in range(25):
        mu = random_circle_probability(rng, ell)
        nu = random_circle_probability(rng, ell)
        rho = random_circle_probability(rng, ell)
        assert wasserstein_distance(mu, nu) == wasserstein_distance(nu, mu)
        assert wasserstein_distance(mu, nu) <= (
            wasserstein_distance(mu, rho) + wasserstein_distance(rho, nu)
        )
        assert wasserstein_distance(mu, mu) == 0


def test_report_torsion_rows():
    ell = F(5)
    curve = TateCurve.of(ell)
    phi = neron_tate_potential(ell)
    one = PiecewisePoly.constant(circle_graph(ell), F(3, 7))
    rows = weak_convergence_report(
        [(n, torsion_specializations(curve, n)) for n in range(1, 9)],
        [("nt", phi), ("const", one)],
        include_w1=True,
    )
    for row in rows:
        n = row.n
        assert row.count == n * n
        assert row.ks == (F(1, n) if n >= 2 else F(1))
        # the n-th grid average of the potential is L/(12 n^2)
        assert row.errors[0] == ell / (12 * n * n)
        assert row.errors[1] == 0
        assert row.w1 == ell / (4 * n)
    # the error column decreases monotonically to 0
    errs = [row.errors[0] for row in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_report_detects_non_convergence():
    ell = F(3)
    fake = [(n, OrbitSample.of(ell, [F(0)] * n)) for n in range(1, 6)]
    rows = weak_convergence_report(fake)
    assert all(row.ks == 1 for row in rows)


def test_random_specializations_deterministic():
    curve = TateCurve.of(F(2))
    a = random_specializations(curve, 6, random.Random(99))
    b = random_specializations(curve, 6, random.Random(99))
    c = random_specializations(curve, 6, random.Random(7))
    assert a == b
    assert a.total == 36
    assert a != c
    assert all(t.denominator <= 6 * 2 for t, _ in a.counts)


class _ReferenceCdf:
    """The earlier per-point CDF of a circle measure, kept as a test oracle."""

    def __init__(self, measure):
        atoms = {}
        for point, weight in measure.discrete.items():
            offset = F(0) if point.is_vertex else point.offset
            atoms[offset] = atoms.get(offset, F(0)) + weight
        self.atom_offsets = sorted(atoms)
        self.atom_weights = [atoms[t] for t in self.atom_offsets]
        self.prefix = [F(0)]
        for w in self.atom_weights:
            self.prefix.append(self.prefix[-1] + w)
        self.pieces = measure.density_pieces(0)
        self.piece_prefix = [F(0)]
        for a, b, v in self.pieces:
            self.piece_prefix.append(self.piece_prefix[-1] + v * (b - a))

    def breakpoints(self):
        return set(self.atom_offsets) | {a for a, _, _ in self.pieces}

    def at(self, t):
        """(left limit, right value) of the CDF at t."""
        i = bisect_left(self.atom_offsets, t)
        left = self.prefix[i]
        here = self.atom_weights[i] if i < len(self.atom_offsets) and self.atom_offsets[i] == t else 0
        j = bisect_right([a for a, _, _ in self.pieces], t) - 1
        a, _, v = self.pieces[j]
        left += self.piece_prefix[j] + v * (t - a)
        return left, left + here


def reference_distances(mu, target=None):
    """(KS, W1) by the earlier per-point CDF evaluation and quadratic median search."""
    length = mu.graph.edges[0].length
    if target is None:
        target = GraphMeasure.constant_density(mu.graph, 1 / length)
    cdf_mu, cdf_nu = _ReferenceCdf(mu), _ReferenceCdf(target)
    cuts = sorted(cdf_mu.breakpoints() | cdf_nu.breakpoints() | {F(0), length})
    ks = F(0)
    for t in cuts:
        (mu_l, mu_r), (nu_l, nu_r) = cdf_mu.at(t), cdf_nu.at(t)
        ks = max(ks, abs(mu_l - nu_l), abs(mu_r - nu_r))
    segments = [
        (a, b, cdf_mu.at(a)[1] - cdf_nu.at(a)[1], cdf_mu.at(b)[0] - cdf_nu.at(b)[0])
        for a, b in zip(cuts, cuts[1:])
    ]

    point_masses, spreads = {}, []
    for a, b, ga, gb in segments:
        if ga == gb:
            point_masses[ga] = point_masses.get(ga, F(0)) + (b - a)
        else:
            spreads.append((min(ga, gb), max(ga, gb), b - a))

    def measure_below(s):
        m = sum((w for v, w in point_masses.items() if v <= s), F(0))
        for lo, hi, w in spreads:
            if s >= hi:
                m += w
            elif s > lo:
                m += w * (s - lo) / (hi - lo)
        return m

    half, shift, previous = length / 2, None, None
    for c in sorted(set(point_masses) | {v for lo, hi, _ in spreads for v in (lo, hi)}):
        if measure_below(c) >= half:
            shift = c
            if previous is not None:
                below = measure_below(previous)
                slope = sum((w / (hi - lo) for lo, hi, w in spreads if lo <= previous and c <= hi), F(0))
                if slope > 0 and below + slope * (c - previous) >= half:
                    shift = min(c, previous + (half - below) / slope)
            break
        previous = c

    def abs_integral(a, b, ga, gb):
        if ga == gb:
            return abs(ga) * (b - a)
        if (ga >= 0 and gb >= 0) or (ga <= 0 and gb <= 0):
            return abs(ga + gb) * (b - a) / 2
        return (ga * ga + gb * gb) * (b - a) / (2 * abs(gb - ga))

    return ks, sum((abs_integral(a, b, ga - shift, gb - shift) for a, b, ga, gb in segments), F(0))


def random_pair(rng, ell):
    """Two circle probability measures with slabs, vertex atoms and shared atoms.

    The shared atoms have equal weights in both measures, so their CDF jumps
    cancel in the difference.
    """
    g = circle_graph(ell)
    grid = [F(k, 12) * ell for k in range(12)]
    shared = [(t, F(rng.randint(1, 3), 24)) for t in rng.sample(grid, rng.randint(0, 3))]
    rest = 1 - sum((w for _, w in shared), F(0))

    def measure():
        atoms = [(rng.choice(grid[:1] + grid), F(rng.randint(1, 6))) for _ in range(rng.randint(0, 4))]
        cuts = sorted(set(rng.sample(grid[1:], rng.randint(0, 3))))
        values = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(len(cuts) + 1)]
        if not atoms and not any(values):
            values[0] = F(1)
        mu = GraphMeasure(g, [(g.point(0, t), w) for t, w in atoms], {0: (cuts, values)})
        scaled = mu * (rest / mu.total_mass)
        return scaled + GraphMeasure(g, [(g.point(0, t), w) for t, w in shared])

    mu = measure()
    return mu, (None if rng.random() < 0.25 else measure())


def test_sweep_matches_reference_on_random_pairs():
    rng = random.Random(2011)
    for _ in range(320):
        ell = rng.choice((F(5), F(7, 3), F(2), F(11, 2)))
        mu, target = random_pair(rng, ell)
        expected = reference_distances(mu, target)
        assert (kolmogorov_distance(mu, target), wasserstein_distance(mu, target)) == expected


def test_sweep_matches_reference_on_report_rows():
    for ell in (F(5), F(7, 3)):
        curve = TateCurve.of(ell)
        samples = [(n, torsion_specializations(curve, n, n > 1 and n % 2 == 0)) for n in range(1, 30)]
        samples += [(n, random_specializations(curve, n, random.Random(n))) for n in range(1, 30)]
        for (_, sample), row in zip(samples, weak_convergence_report(samples, include_w1=True)):
            assert (row.ks, row.w1) == reference_distances(empirical_measure(sample))


def test_torsion_closed_forms_up_to_300():
    for ell in (F(5), F(7, 3)):
        curve = TateCurve.of(ell)
        samples = [(n, torsion_specializations(curve, n)) for n in range(1, 301)]
        for row in weak_convergence_report(samples, include_w1=True):
            assert row.ks == F(1, row.n)
            assert row.w1 == ell / (4 * row.n)


def test_random_specializations_match_per_draw_construction():
    for ell, n, seed in ((F(5), 1, 0), (F(7, 3), 9, 3), (F(2), 40, 11), (F(11, 2), 73, 5)):
        curve = TateCurve.of(ell)
        rng, per_draw = random.Random(seed), random.Random(seed)
        sample = random_specializations(curve, n, rng)
        expected = OrbitSample.of(ell, [F(per_draw.randrange(n), n) * ell for _ in range(n * n)])
        assert sample.counts == expected.counts
        assert rng.getstate() == per_draw.getstate()
