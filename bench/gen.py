"""Seeded input generators for the benchmark.

Everything here returns plain data (names, index tuples and Fractions) drawn
from an explicit ``random.Random``; the workloads turn it into library
objects inside a timed op, so the library only ever sees generated inputs.

Points are written ``("v", name)`` for a vertex or ``(edge, offset)`` for a
point strictly inside an edge.  A measure spec is a pair
``(atoms, densities)`` with ``atoms`` a list of ``(point, weight)`` and
``densities`` a dict ``edge -> (breakpoints, values)``.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Small primes used as denominators so that circle atoms from different
# draws rarely share a grid.
UNRELATED_DENOMINATORS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def positive_rational(rng: random.Random, max_num: int = 12, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def signed_rational(rng: random.Random, bound: int = 5, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    value = Fraction(rng.randint(-bound * den, bound * den), den)
    return value if value else Fraction(1, den)


def graph_spec(rng: random.Random, n_vertices: int, n_edges: int):
    """Connected graph with exactly ``n_edges`` edges, loops and multi-edges.

    A random spanning tree comes first; at least one extra edge is a loop
    and at least one doubles an existing edge whenever two extras exist.
    """
    if n_edges < n_vertices - 1:
        raise ValueError("too few edges for a connected graph")
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        a, b = vertices[rng.randrange(i)], vertices[i]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, positive_rational(rng)))
    for k in range(n_edges - len(edges)):
        roll = rng.random()
        if k == 0 or roll < 0.25:
            v = rng.choice(vertices)
            edges.append((v, v, positive_rational(rng)))
        elif (k == 1 or roll < 0.6) and edges:
            a, b, _ = rng.choice(edges)
            edges.append((b, a, positive_rational(rng)))
        else:
            edges.append((rng.choice(vertices), rng.choice(vertices), positive_rational(rng)))
    return vertices, edges


def tree_with_loops_spec(rng: random.Random, n_vertices: int, n_loops: int):
    """A random tree plus loops hanging off random vertices."""
    vertices, edges = graph_spec(rng, n_vertices, n_vertices - 1)
    for _ in range(n_loops):
        v = rng.choice(vertices)
        edges.append((v, v, positive_rational(rng)))
    return vertices, edges


def theta_spec():
    """Two vertices joined by three edges of unrelated lengths."""
    return ["a", "b"], [
        ("a", "b", Fraction(1)),
        ("a", "b", Fraction(2, 3)),
        ("b", "a", Fraction(7, 4)),
    ]


def interior_offset(rng: random.Random, length: Fraction) -> Fraction:
    den = rng.choice((2, 3, 4, 5, 7, 8))
    return Fraction(rng.randint(1, den - 1), den) * length


def random_point(rng: random.Random, vertices, edges, vertex_share: float = 0.4):
    if rng.random() < vertex_share:
        return ("v", rng.choice(vertices))
    e = rng.randrange(len(edges))
    return (e, interior_offset(rng, edges[e][2]))


def _cuts(rng: random.Random, length: Fraction, count: int) -> tuple[Fraction, ...]:
    return tuple(sorted({interior_offset(rng, length) for _ in range(count)}))


def mass_zero_target(rng: random.Random, vertices, edges, kind: str):
    """Mass-zero measure spec of one of three kinds.

    vertex:   signed Diracs at vertices only;
    interior: signed Diracs at vertices and interior points;
    density:  piecewise-constant densities on some edges, balanced by Diracs.
    """
    atoms = []
    densities = {}
    if kind == "vertex":
        for _ in range(rng.randint(2, 5)):
            atoms.append((("v", rng.choice(vertices)), signed_rational(rng)))
    elif kind == "interior":
        for _ in range(rng.randint(2, 5)):
            atoms.append((random_point(rng, vertices, edges, 0.2), signed_rational(rng)))
    elif kind == "density":
        for e in rng.sample(range(len(edges)), min(len(edges), rng.randint(2, 4))):
            cuts = _cuts(rng, edges[e][2], rng.randint(0, 2))
            densities[e] = (cuts, tuple(signed_rational(rng) for _ in range(len(cuts) + 1)))
        atoms.append((random_point(rng, vertices, edges), signed_rational(rng)))
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    mass = sum((w for _, w in atoms), Fraction(0)) + density_mass(edges, densities)
    atoms.append((("v", rng.choice(vertices)), -mass))
    return atoms, densities


def density_mass(edges, densities) -> Fraction:
    total = Fraction(0)
    for e, (cuts, values) in densities.items():
        bounds = [Fraction(0), *cuts, edges[e][2]]
        total += sum((v * (b - a) for a, b, v in zip(bounds, bounds[1:], values)), Fraction(0))
    return total


def probability_spec(rng: random.Random, vertices, edges):
    """Positive Diracs plus one positive density slab, scaled to mass one."""
    atoms = [(random_point(rng, vertices, edges), positive_rational(rng)) for _ in range(2)]
    e = rng.randrange(len(edges))
    densities = {e: ((), (positive_rational(rng),))}
    mass = sum((w for _, w in atoms), Fraction(0)) + density_mass(edges, densities)
    scaled_atoms = [(p, w / mass) for p, w in atoms]
    scaled_densities = {k: (c, tuple(v / mass for v in vals)) for k, (c, vals) in densities.items()}
    return scaled_atoms, scaled_densities


def circle_atoms(rng: random.Random, ell: Fraction, count: int):
    """Positive atoms on [0, ell) at offsets with unrelated prime denominators."""
    atoms = {}
    for _ in range(count):
        den = rng.choice(UNRELATED_DENOMINATORS)
        offset = Fraction(rng.randrange(den), den) * ell
        atoms[offset] = atoms.get(offset, 0) + rng.randint(1, 9)
    return sorted(atoms.items())


def circle_slabs(rng: random.Random, ell: Fraction, count: int):
    """Positive piecewise-constant density on the circle edge."""
    cuts = _cuts(rng, ell, count)
    return cuts, tuple(Fraction(rng.randint(1, 9)) for _ in range(len(cuts) + 1))


def circle_probability(rng: random.Random, ell: Fraction, n_atoms: int, n_cuts: int):
    """Mixture of unrelated-denominator atoms and density slabs, mass one.

    Returns ``(atoms, densities)`` on the circle edge 0.  ``n_atoms == 0``
    drops the atoms and a negative ``n_cuts`` drops the slab.
    """
    raw_atoms = circle_atoms(rng, ell, n_atoms) if n_atoms else []
    densities = {}
    if n_cuts >= 0:
        densities[0] = circle_slabs(rng, ell, n_cuts)
    mass = sum((Fraction(m) for _, m in raw_atoms), Fraction(0)) + density_mass(
        [("v0", "v0", ell)], densities
    )
    atoms = [((0, t) if t else ("v", "v0"), Fraction(m) / mass) for t, m in raw_atoms]
    densities = {e: (c, tuple(v / mass for v in vals)) for e, (c, vals) in densities.items()}
    return atoms, densities


def interval_complement(rng: random.Random, ell: Fraction, count: int):
    """``count`` disjoint ordered open intervals inside [0, ell]."""
    den = rng.choice((3, 4, 6, 8))
    grid = sorted(rng.sample(range(1, den * 2 * count), 2 * count))
    scale = ell / (den * 2 * count)
    return [(grid[2 * i] * scale, grid[2 * i + 1] * scale) for i in range(count)]


def fiber_model(rng: random.Random, prefix: str):
    """Consistent special-fiber model data: (components, exponents, total)."""
    exponents = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    scale = 1
    for e in exponents:
        scale *= e
    components = [
        (f"{prefix}{i}", rng.randint(1, 4), Fraction(rng.randint(1, 12), rng.randint(1, 4)))
        for i in range(rng.randint(2, 7))
    ]
    total = sum((Fraction(m) * d for _, m, d in components), Fraction(0)) / scale
    return components, exponents, total


def _unit(rng: random.Random, p: int, bound: int = 60) -> Fraction:
    """A p-adic unit rational with numerator and denominator prime to p."""
    while True:
        num, den = rng.randint(1, bound), rng.randint(1, bound)
        if num % p and den % p:
            return Fraction(num, den)


def certified_orbit(rng: random.Random):
    """(coefficients, p, x) whose escape certifies within one step.

    The map x^b + u/p^r (u a unit, r >= 1) has escape threshold -r/b: a
    p-integral start certifies after one step, a start of valuation -r or
    below certifies at once.
    """
    p = rng.choice((2, 3, 5, 7))
    b = rng.choice((2, 3))
    r = rng.randint(1, 3)
    coefficients = [Fraction(1)] + [Fraction(0)] * (b - 1) + [_unit(rng, p) / p**r]
    if rng.random() < 0.5:
        x = _unit(rng, p) * p ** rng.randint(0, 2)
    else:
        x = _unit(rng, p) / p ** (r + rng.randint(0, 2))
    return coefficients, p, x


def integral_orbit(rng: random.Random):
    """p-integral map and start: the height is 0 without iterating."""
    p = rng.choice((2, 3, 5, 7))
    coefficients = [Fraction(rng.randint(1, 5))] + [Fraction(rng.randint(-4, 4)) for _ in range(2)]
    return coefficients, p, Fraction(rng.randint(-20, 20))


def bounded_orbit(rng: random.Random):
    """(coefficients, p, x) whose valuation stays at the threshold forever.

    The map is x^b / p^(b-1) with threshold 1; a start p*u with u a unit
    keeps valuation exactly 1, so the orbit never certifies while the
    iterates' bit size grows by a factor b per step.
    """
    p = rng.choice((2, 3, 5))
    b = 2
    coefficients = [Fraction(1, p ** (b - 1))] + [Fraction(0)] * b
    return coefficients, p, p * _unit(rng, p)
