"""Exact reference answers the benchmark checks every op against.

These are closed forms or independent algorithms that share no code with
``redgraph``: circle pair energy, the invariant circle potential, bump
bounds, effective resistance by Laplacian elimination, and a sorted sweep
for the KS and W1 distances between circle measures of atoms and density
slabs.  All arithmetic is over ``fractions.Fraction``.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = Fraction(0)


def circle_pair_energy(ell: Fraction, t: Fraction, s: Fraction = ZERO) -> Fraction:
    """Energy of the potential with d2 = dirac(t) - dirac(s) on a circle: d(L-d)/L."""
    d = abs(t - s)
    return d * (ell - d) / ell


def nt_value(ell: Fraction, t: Fraction) -> Fraction:
    """Invariant circle potential t^2/(2L) - t/2 + L/12."""
    return t * t / (2 * ell) - t / 2 + ell / 12


def bump_bound(ell: Fraction, intervals, coefficients) -> Fraction:
    """sum d^3 c (1 - L c) / (6 L) for bumps c (t-a)(b-t) on intervals of length d."""
    return sum(
        ((b - a) ** 3 * c * (1 - ell * c) for (a, b), c in zip(intervals, coefficients)), ZERO
    ) / (6 * ell)


def bump_shift(ell: Fraction, intervals, coefficients, eps: Fraction) -> Fraction:
    """Variety height shift under eps*bump for the degree-one invariant bundle.

    The bump integrates to c d^3/6 per interval and has energy c^2 d^3/3.
    """
    linear = sum(((b - a) ** 3 * c for (a, b), c in zip(intervals, coefficients)), ZERO) / 6
    quadratic = sum(((b - a) ** 3 * c * c for (a, b), c in zip(intervals, coefficients)), ZERO) / 3
    return eps * linear / ell - eps * eps * quadratic / 2


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination for a nonsingular square system."""
    n = len(rhs)
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(c + 1, n):
            if m[i][c]:
                factor = m[i][c] / m[c][c]
                for j in range(c, n + 1):
                    m[i][j] -= factor * m[c][j]
    x = [ZERO] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum((m[i][j] * x[j] for j in range(i + 1, n)), ZERO)) / m[i][i]
    return x


def effective_resistance(vertices, edges, p, q) -> Fraction:
    """Resistance between points p and q with edge resistances = lengths.

    Interior points split their edge into series pieces; loops carry no
    current.  q is grounded, a unit current enters at p, and the answer is
    the potential at p.  This equals the Dirichlet energy of the potential
    with d2 = dirac(p) - dirac(q).
    """
    cuts: dict[int, set[Fraction]] = {}
    for point in (p, q):
        if point[0] != "v":
            cuts.setdefault(point[0], set()).add(point[1])
    nodes = list(vertices)
    wires = []
    for e, (a, b, length) in enumerate(edges):
        chain = [a]
        offsets = sorted(cuts.get(e, ()))
        for t in offsets:
            nodes.append((e, t))
            chain.append((e, t))
        chain.append(b)
        marks = [ZERO, *offsets, length]
        for u, v, s, t in zip(chain, chain[1:], marks, marks[1:]):
            if u != v:
                wires.append((u, v, 1 / (t - s)))

    def key(point):
        return point[1] if point[0] == "v" else point

    if key(p) == key(q):
        return ZERO
    free = [n for n in nodes if n != key(q)]
    index = {n: i for i, n in enumerate(free)}
    lap = [[ZERO] * len(free) for _ in free]
    for u, v, g in wires:
        for x, y in ((u, v), (v, u)):
            if x in index:
                lap[index[x]][index[x]] += g
                if y in index:
                    lap[index[x]][index[y]] -= g
    rhs = [ZERO] * len(free)
    rhs[index[key(p)]] = Fraction(1)
    return _solve(lap, rhs)[index[key(p)]]


def _offset(point) -> Fraction:
    return ZERO if point[0] == "v" else point[1]


def _density_at(spec, t: Fraction) -> Fraction:
    """Value of a (cuts, values) piecewise-constant density just right of t."""
    cuts, values = spec
    return values[sum(1 for c in cuts if c <= t)]


def circle_distances(ell: Fraction, mu, nu) -> tuple[Fraction, Fraction]:
    """(KS, W1) between two circle probability measures given as specs.

    A spec is ``(atoms, densities)`` as ``gen.circle_probability`` makes it:
    atoms ``[(point, weight)]`` and at most one piecewise-constant density
    ``{0: (cuts, values)}``.  g = F_mu - F_nu, both CDFs taken from the
    vertex, jumps at atoms and is linear between consecutive breakpoints, so
    KS is the largest |g| at a breakpoint from either side.  W1 is min over
    s of the integral of |g - s|; s is a median of the push-forward of arc
    length by g, found by one sorted sweep over the value ranges of the
    linear pieces.
    """
    jumps: dict[Fraction, Fraction] = {}
    slabs = []
    for sign, (atoms, densities) in ((1, mu), (-1, nu)):
        for point, weight in atoms:
            jumps[_offset(point)] = jumps.get(_offset(point), ZERO) + sign * weight
        if 0 in densities:
            slabs.append((sign, densities[0]))
    marks = {ZERO, ell, *jumps}
    for _, (cuts, _) in slabs:
        marks.update(cuts)
    marks = sorted(marks)

    ks = ZERO
    pieces = []  # (width, g just right of the start, g just left of the end)
    g = ZERO
    for t, end in zip(marks, marks[1:]):
        after = g + jumps.get(t, ZERO)
        ks = max(ks, abs(g), abs(after))
        slope = sum((sign * _density_at(spec, t) for sign, spec in slabs), ZERO)
        g = after + slope * (end - t)
        pieces.append((end - t, after, g))
    ks = max(ks, abs(g))

    # arc length on which g lies below level s: flat pieces are point masses
    # at their value, sloped pieces spread their width evenly over [lo, hi];
    # sweep the levels upwards until it reaches ell/2
    masses: dict[Fraction, Fraction] = {}
    rates: dict[Fraction, Fraction] = {}
    for width, a, b in pieces:
        if a == b:
            masses[a] = masses.get(a, ZERO) + width
        else:
            lo, hi = min(a, b), max(a, b)
            rates[lo] = rates.get(lo, ZERO) + width / (hi - lo)
            rates[hi] = rates.get(hi, ZERO) - width / (hi - lo)
    half = ell / 2
    levels = sorted(masses.keys() | rates.keys())
    covered, rate, level = ZERO, ZERO, levels[0]
    median = None
    for value in levels:
        if covered + rate * (value - level) >= half:
            median = level + (half - covered) / rate
            break
        covered += rate * (value - level) + masses.get(value, ZERO)
        if covered >= half:
            median = value
            break
        rate += rates.get(value, ZERO)
        level = value
    assert median is not None, "the sweep always reaches one half"

    w1 = ZERO
    for width, a, b in pieces:
        lo, hi = min(a, b), max(a, b)
        if median <= lo or median >= hi:
            w1 += width * abs((lo + hi) / 2 - median)
        else:
            w1 += width * ((hi - median) ** 2 + (median - lo) ** 2) / (2 * (hi - lo))
    return ks, w1


def atoms_vs_uniform(ell: Fraction, counts) -> tuple[Fraction, Fraction, Fraction]:
    """(KS, W1, nt error) of an atomic circle measure against the invariant one.

    ``counts`` is a sorted list of (offset in [0, ell), positive multiplicity).
    """
    total = sum(m for _, m in counts)
    atoms = [((0, t), Fraction(m, total)) for t, m in counts]
    ks, w1 = circle_distances(ell, (atoms, {}), ([], {0: ((), (1 / ell,))}))
    nt_error = abs(sum((Fraction(m, total) * nt_value(ell, t) for t, m in counts), ZERO))
    return ks, w1, nt_error


def grid_draws(ell: Fraction, n: int, rng: random.Random):
    """Sorted (offset, multiplicity) of n^2 draws from the grid {b*ell/n}.

    Reproduces the documented draw order of ``equi run --mode random``: one
    ``rng.randrange(n)`` per draw.
    """
    counts: dict[int, int] = {}
    for _ in range(n * n):
        b = rng.randrange(n)
        counts[b] = counts.get(b, 0) + 1
    return [(Fraction(b, n) * ell, m) for b, m in sorted(counts.items())]


def torsion_expectations(ell: Fraction, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(KS, W1, nt error) of the full n^2-torsion sample: 1/n, L/(4n), L/(12n^2)."""
    return Fraction(1, n), ell / (4 * n), ell / (12 * n * n)
