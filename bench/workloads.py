"""The benchmark workloads.

A workload is built once per set-up (pools, files), then hands out rounds
of ops.  Round ``r`` is generated from ``(workload, seed, r)`` alone, so a
seed fixes every input.  An op is ``run(api)``, the timed calls through the
doorway in ``api``, plus ``check(result)``, an exact oracle that uses the
untraced library and ``oracles`` and is never timed.

Every round draws its sizes from fixed strata (only shapes, points and
weights are random), so the per-round work is steady across seeds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import gen
import oracles
from api import point


class Op(NamedTuple):
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


def q(x: Fraction) -> str:
    """A rational as the CLI writes and reads it."""
    return f"{x.numerator}/{x.denominator}"


def cli_point(spec) -> str:
    return f"v:{spec[1]}" if spec[0] == "v" else f"{spec[0]}:{q(spec[1])}"


def graph_json(vertices, edges) -> dict:
    return {
        "vertices": list(vertices),
        "edges": [{"from": a, "to": b, "length": q(length)} for a, b, length in edges],
    }


def measure_json(spec) -> dict:
    atoms, densities = spec
    discrete = []
    for p, w in atoms:
        entry = {"vertex": p[1]} if p[0] == "v" else {"edge": p[0], "offset": q(p[1])}
        entry["weight"] = q(w)
        discrete.append(entry)
    density = [
        {"edge": e, "breakpoints": [q(x) for x in cuts], "values": [q(v) for v in values]}
        for e, (cuts, values) in sorted(densities.items())
    ]
    return {"discrete": discrete, "density": density}


def circle_offset(spec) -> Fraction:
    return Fraction(0) if spec[0] == "v" else spec[1]


class Workload:
    name = ""
    # op-clock seconds one round takes on a 2-core x86 box; only sizes the
    # number of rounds a traced run makes
    nominal_round_s = 1.0

    def __init__(self, rg, api, seed: int, workdir: str) -> None:
        self.rg = rg
        self.seed = seed
        self.workdir = workdir
        self.setup(api, self.rng("setup"))

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def setup(self, api, rng: random.Random) -> None:
        pass

    def round(self, r: int) -> list[Op]:
        """Ops of round ``r``; round -1 is the untimed warm-up."""
        rng = self.rng(r)
        ops = self.ops(rng, warm_up=r < 0)
        rng.shuffle(ops)
        return ops

    def ops(self, rng: random.Random, warm_up: bool) -> list[Op]:
        raise NotImplementedError


class PoissonFresh(Workload):
    """solve_d2 on a never-seen graph per op, then the round trip and energy identity."""

    name = "poisson-fresh"
    nominal_round_s = 1.6
    # log-spaced sizes give a continuum of op costs, so that a host slowdown
    # on part of a run moves p50 and p90 smoothly instead of flipping them
    # between size classes
    SIZES = (6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 25, 28, 32, 36, 40)
    WARM_UP_SIZES = (6, 8, 10)
    KINDS = ("vertex", "interior", "density")

    def ops(self, rng, warm_up):
        sizes = self.WARM_UP_SIZES if warm_up else self.SIZES
        # every size meets every target kind and both normalizations over rounds
        shift = rng.randrange(6)
        return [self._op(rng, v, i + shift) for i, v in enumerate(sizes)]

    def _op(self, rng, n_vertices, slot):
        vertices, edges = gen.graph_spec(rng, n_vertices, round(1.3 * n_vertices))
        target = gen.mass_zero_target(rng, vertices, edges, self.KINDS[slot % 3])
        base = gen.random_point(rng, vertices, edges) if slot % 2 == 0 else None
        mixture = None if base is not None or rng.random() < 0.5 else gen.probability_spec(
            rng, vertices, edges
        )

        def run(api):
            g = api.graph(vertices, edges)
            rho = api.measure(g, target)
            if base is not None:
                f = api.solve_d2(g, rho, base_point=base)
                gauge = api.value_at(f, g, base)
            else:
                reference = api.uniform(g)
                if mixture is not None:
                    reference = api.mix(
                        [(Fraction(1, 2), reference), (Fraction(1, 2), api.measure(g, mixture))]
                    )
                f = api.solve_d2(g, rho, reference=reference)
                gauge = api.integrate(f, reference)
            back = api.d2(f)
            return rho, back, api.integrate(f, back), api.energy(f), gauge

        def check(result):
            rho, back, pairing, energy, gauge = result
            return back == rho and pairing == -energy and gauge == 0

        return Op("solve", run, check)


class HeightsReuse(Workload):
    """Many small solves and height computations on a fixed pool of graphs."""

    name = "heights-reuse"
    nominal_round_s = 0.45
    CIRCLE_LENGTHS = (Fraction(3), Fraction(5), Fraction(7, 3), Fraction(11, 2))
    # sixteen seeded graphs of one size, three of them drawn per round, average
    # out seed-to-seed structure cost
    POOL_GRAPHS, POOL_VERTICES, POOL_EDGES = 16, 20, 26
    BIG_PER_ROUND = 3

    def setup(self, api, rng):
        self.circles = {}
        for ell in self.CIRCLE_LENGTHS:
            g = api.circle(ell)
            self.circles[ell] = (g, api.uniform(g), api.neron_tate_bundle(ell))
        self.general = {}
        seeded = [
            (f"big{i}", gen.graph_spec(rng, self.POOL_VERTICES, self.POOL_EDGES))
            for i in range(self.POOL_GRAPHS)
        ]
        for label, spec in [("theta", gen.theta_spec()), *seeded]:
            g = api.graph(*spec)
            self.general[label] = (spec, g, api.uniform(g))

    def ops(self, rng, warm_up):
        if warm_up:
            return [
                self._green(rng, "theta"),
                self._phi_circle(rng),
                self._phi_general(rng, "theta"),
                self._nt(rng),
                self._bound(rng, override=False),
                self._shift(rng),
                self._height(rng, gen.certified_orbit),
                self._bounded(rng),
                self._shilov(rng),
            ]
        big = [f"big{i}" for i in rng.sample(range(self.POOL_GRAPHS), self.BIG_PER_ROUND)]
        return [
            *(self._green(rng, key) for key in big),
            self._green(rng, "theta"),
            self._green(rng, rng.choice(self.CIRCLE_LENGTHS)),
            *(self._phi_general(rng, key) for key in big),
            self._phi_general(rng, "theta"),
            self._phi_circle(rng),
            self._phi_circle(rng),
            self._nt(rng),
            self._nt(rng),
            self._bound(rng, override=False),
            self._bound(rng, override=False),
            self._bound(rng, override=True),
            self._bound(rng, override=True),
            self._shift(rng),
            self._shift(rng),
            self._height(rng, gen.certified_orbit),
            self._height(rng, gen.integral_orbit),
            self._bounded(rng),
            self._bounded(rng),
            self._shilov(rng),
            self._shilov(rng),
        ]

    def _pool_graph(self, key):
        if key in self.circles:
            g, uniform, _ = self.circles[key]
            return (["v0"], [("v0", "v0", key)]), g, uniform
        return self.general[key]

    def _green(self, rng, key):
        (vertices, edges), g, reference = self._pool_graph(key)
        x = gen.random_point(rng, vertices, edges)
        y = gen.random_point(rng, vertices, edges)
        potential, core = self.rg.potential, self.rg.core

        def run(api):
            gx = api.green(g, x, reference)
            gy = api.green(g, y, reference)
            return gx, api.value_at(gx, g, y), api.value_at(gy, g, x)

        def check(result):
            gx, xy, yx = result
            pole = core.GraphMeasure.dirac(g, point(g, x))
            return (
                xy == yx
                and potential.d2(gx) == reference - pole
                and core.integrate(gx, reference) == 0
            )

        return Op("green", run, check)

    def _phi_circle(self, rng):
        ell = rng.choice(self.CIRCLE_LENGTHS)
        g = self.circles[ell][0]
        edges = [("v0", "v0", ell)]
        p = gen.random_point(rng, ["v0"], edges, 0.2)
        s = gen.random_point(rng, ["v0"], edges, 0.5)
        expected = oracles.circle_pair_energy(ell, circle_offset(p), circle_offset(s))
        return Op("phi_energy", lambda api: api.phi_energy(g, p, s), lambda e: e == expected)

    def _phi_general(self, rng, key):
        (vertices, edges), g, _ = self.general[key]
        p = gen.random_point(rng, vertices, edges)
        s = gen.random_point(rng, vertices, edges)

        def check(value):
            return value == oracles.effective_resistance(vertices, edges, p, s)

        return Op("phi_energy", lambda api: api.phi_energy(g, p, s), check)

    def _nt(self, rng):
        ell = rng.choice(self.CIRCLE_LENGTHS)
        core = self.rg.core

        def run(api):
            bundle = api.neron_tate_bundle(ell)
            return bundle, api.curvature(bundle)

        def check(result):
            bundle, curvature = result
            closed_form = ((), ((1 / (2 * ell), Fraction(-1, 2), ell / 12),))
            return (
                bundle.twist.edge_pieces(0) == closed_form
                and curvature == core.GraphMeasure.constant_density(bundle.graph, 1 / ell)
                and bundle.degree == 1
            )

        return Op("neron_tate", run, check)

    def _bump_input(self, rng):
        ell = rng.choice(self.CIRCLE_LENGTHS)
        intervals = gen.interval_complement(rng, ell, rng.randint(1, 4))
        coefficients = [gen.positive_rational(rng, 6, 4) / ell for _ in intervals]
        return ell, intervals, coefficients, self.circles[ell][2]

    def _bound(self, rng, override):
        ell, intervals, coefficients, bundle = self._bump_input(rng)
        if not override:
            default = [1 / (2 * ell)] * len(intervals)
            expected = oracles.bump_bound(ell, intervals, default)

            def run(api):
                phi = api.optimal_bump(ell, intervals)
                return api.lower_bound(bundle, phi), api.closed_form_bound(ell, intervals)

            return Op("lower_bound", run, lambda r: r[0] == r[1] == expected)
        expected = oracles.bump_bound(ell, intervals, coefficients)

        def run_override(api):
            return api.lower_bound(bundle, api.optimal_bump(ell, intervals, coefficients))

        return Op("lower_bound", run_override, lambda value: value == expected)

    def _shift(self, rng):
        ell, intervals, coefficients, bundle = self._bump_input(rng)
        eps = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        expected = oracles.bump_shift(ell, intervals, coefficients, eps)

        def run(api):
            phi = api.optimal_bump(ell, intervals, coefficients)
            return api.height_shift_variety(bundle, phi, eps)

        return Op("height_shift", run, lambda value: value == expected)

    def _height(self, rng, orbit):
        coefficients, p, x = orbit(rng)
        canheight = self.rg.canheight

        def check(h):
            f = canheight.PolyMap.of(coefficients, p)
            image = canheight.canonical_local_height(f, f(x), 8)
            return h.converged and image.converged and image.value == f.degree * h.value

        return Op(
            "canheight",
            lambda api: api.canonical_local_height(coefficients, p, x, 8),
            check,
        )

    def _bounded(self, rng):
        coefficients, p, x = gen.bounded_orbit(rng)
        max_iter = rng.randint(10, 13)

        def check(h):
            return not h.converged and h.value == 0 and h.iterations == max_iter

        return Op(
            "canheight",
            lambda api: api.canonical_local_height(coefficients, p, x, max_iter),
            check,
        )

    def _shilov(self, rng):
        model_x = gen.fiber_model(rng, "X")
        model_y = gen.fiber_model(rng, "Y")
        degree = rng.randint(1, 4)
        images = rng.randint(1, 3)
        relabeling = {label: f"Z{i % images}" for i, (label, _, _) in enumerate(model_x[0])}
        dim_x, dim_y = rng.randint(0, 3), rng.randint(0, 3)

        def run(api):
            mx = api.shilov_measure(model_x)
            my = api.shilov_measure(model_y)
            return (
                mx,
                my,
                api.pushforward(mx, degree, relabeling),
                api.product_measure(mx, dim_x, my, dim_y),
            )

        def check(result):
            mx, my, pushed, product = result
            wx, wy = shilov_weights(model_x), shilov_weights(model_y)
            image_weights: dict[str, Fraction] = {}
            for label, w in wx.items():
                image = relabeling[label]
                image_weights[image] = image_weights.get(image, Fraction(0)) + degree * w
            binom = math.comb(dim_x + dim_y, dim_x)
            return (
                dict(mx.items()) == wx
                and dict(my.items()) == wy
                and mx.mass == model_x[2]
                and pushed.mass == degree * model_x[2]
                and dict(pushed.items()) == image_weights
                and product.mass == binom * model_x[2] * model_y[2]
                and all(
                    product.weight((a, b)) == binom * wa * wb
                    for a, wa in wx.items()
                    for b, wb in wy.items()
                )
            )

        return Op("shilov", run, check)


def shilov_weights(model) -> dict:
    """Expected Dirac weights mult * deg / prod(exponents), zeros dropped."""
    components, exponents, _ = model
    scale = math.prod(exponents)
    weights = {label: Fraction(m) * d / scale for label, m, d in components}
    return {label: w for label, w in weights.items() if w}


class EquiSweep(Workload):
    """Report rows the way ``equi run`` computes them, plus general circle pairs."""

    name = "equi-sweep"
    nominal_round_s = 0.7
    TORSION_LENGTHS = (Fraction(5), Fraction(7, 3))
    # contiguous order bands give every round the same cost mix and the
    # whole run a continuum of row costs
    TORSION_STRATA = ((2, 40), (41, 80), (81, 120), (121, 160), (161, 200))
    RANDOM_STRATA = ((8, 30), (31, 55), (56, 80), (81, 105), (106, 130))
    GENERAL_LENGTHS = (Fraction(5), Fraction(7, 3), Fraction(11, 2))

    def setup(self, api, rng):
        self.circles = {}
        for ell in dict.fromkeys(self.TORSION_LENGTHS + self.GENERAL_LENGTHS):
            g = api.circle(ell)
            self.circles[ell] = (g, api.uniform(g), api.nt_potential(ell))

    def ops(self, rng, warm_up):
        ops = []
        torsion = self.TORSION_STRATA[:2] if warm_up else self.TORSION_STRATA
        random_strata = self.RANDOM_STRATA[:1] if warm_up else self.RANDOM_STRATA
        for ell in self.TORSION_LENGTHS:
            ops += [self._torsion_row(ell, rng.randint(*s)) for s in torsion]
        for i, s in enumerate(random_strata):
            ops.append(self._random_row(rng, self.TORSION_LENGTHS[i % 2], rng.randint(*s)))
        for ell in self.GENERAL_LENGTHS[: 1 if warm_up else 3]:
            ops.append(self._general(rng, ell))
        return ops

    def _row(self, ell, sample_call):
        _, uniform, nt = self.circles[ell]

        def run(api):
            sample = sample_call(api)
            mu = api.empirical_measure(sample)
            ks = api.kolmogorov_distance(mu)
            w1 = api.wasserstein_distance(mu)
            error = abs(api.integrate(nt, mu) - api.integrate(nt, uniform))
            return sample, ks, w1, error

        return run

    def _torsion_row(self, ell, n):
        def check(result):
            sample, ks, w1, error = result
            return sample.total == n * n and (ks, w1, error) == oracles.torsion_expectations(ell, n)

        return Op("torsion_row", self._row(ell, lambda api: api.torsion_specializations(ell, n)), check)

    def _random_row(self, rng, ell, n):
        # one generator per order, derived as the CLI derives it
        row_seed = rng.randrange(2**31) * 1_000_003 + n

        def check(result):
            sample, ks, w1, error = result
            counts = oracles.grid_draws(ell, n, random.Random(row_seed))
            return list(sample.counts) == counts and (ks, w1, error) == oracles.atoms_vs_uniform(
                ell, counts
            )

        return Op(
            "random_row",
            self._row(ell, lambda api: api.random_specializations(ell, n, random.Random(row_seed))),
            check,
        )

    def _general(self, rng, ell):
        g = self.circles[ell][0]
        mu_spec = gen.circle_probability(rng, ell, rng.randint(36, 44), rng.choice((-1, 0, 2)))
        nu_spec = gen.circle_probability(rng, ell, rng.randint(0, 4), rng.randint(2, 6))
        tate = self.rg.tate

        def run(api):
            mu, nu = api.measure(g, mu_spec), api.measure(g, nu_spec)
            return mu, nu, api.kolmogorov_distance(mu, nu), api.wasserstein_distance(mu, nu)

        def check(result):
            mu, nu, ks, w1 = result
            return (
                (ks, w1) == oracles.circle_distances(ell, mu_spec, nu_spec)
                and tate.kolmogorov_distance(nu, mu) == ks
                and tate.wasserstein_distance(nu, mu) == w1
                and tate.kolmogorov_distance(mu, mu) == 0
                and tate.wasserstein_distance(mu, mu) == 0
            )

        return Op("general_pair", run, check)


class CliSession(Workload):
    """In-process ``redgraph.cli.main`` calls over every subcommand."""

    name = "cli-session"
    nominal_round_s = 0.8
    # several seeded graphs per size average out seed-to-seed structure cost
    SOLVE_SIZES = (12, 30)
    GRAPHS_PER_SIZE = 3
    TARGETS_PER_GRAPH = 2

    def setup(self, api, rng):
        self.solve_cases = {n: [] for n in self.SOLVE_SIZES}
        for n_vertices in self.SOLVE_SIZES:
            for i in range(self.GRAPHS_PER_SIZE):
                vertices, edges = gen.graph_spec(rng, n_vertices, round(1.3 * n_vertices))
                g = api.graph(vertices, edges)
                name = f"graph{n_vertices}_{i}"
                graph_path = self._write(f"{name}.json", graph_json(vertices, edges))
                for j in range(self.TARGETS_PER_GRAPH):
                    spec = gen.mass_zero_target(rng, vertices, edges, PoissonFresh.KINDS[j % 3])
                    target_path = self._write(f"{name}_target{j}.json", measure_json(spec))
                    self.solve_cases[n_vertices].append(
                        (graph_path, target_path, g, api.measure(g, spec), api.uniform(g))
                    )
        self.phi_cases = []
        for name, spec in (
            ("circle", (["v0"], [("v0", "v0", Fraction(7, 3))])),
            ("tree", gen.tree_with_loops_spec(rng, 12, 3)),
        ):
            self.phi_cases.append((self._write(f"phi_{name}.json", graph_json(*spec)), spec))
        self.models = []
        for k in range(3):
            components, exponents, total = gen.fiber_model(rng, "C")
            data = {
                "components": [
                    {"label": label, "mult": m, "deg": q(d)} for label, m, d in components
                ],
                "exponents": list(exponents),
                "total_degree": q(total),
            }
            self.models.append((self._write(f"model{k}.json", data), (components, exponents, total)))

    def _write(self, name, payload) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def ops(self, rng, warm_up):
        small, large = self.SOLVE_SIZES
        if warm_up:
            return [
                self._equi(rng, "torsion", w1=True, slot=0),
                self._equi(rng, "random", w1=True, slot=1),
                self._solve(rng, small),
                self._phi(rng, 0),
                self._phi(rng, 1),
                *(self._bound(rng, how) for how in ("preset", "intervals", "c")),
                self._canheight(rng, bounded=False),
                self._canheight(rng, bounded=True),
                self._nt(rng),
                self._shilov(rng),
            ]
        # many quick calls, a few mid-size equi runs and three large solves
        return [
            *(self._bound(rng, how) for how in ("preset", "preset", "intervals", "intervals", "c", "c")),
            self._canheight(rng, bounded=False),
            self._canheight(rng, bounded=False),
            self._canheight(rng, bounded=True),
            self._nt(rng),
            self._nt(rng),
            self._shilov(rng),
            self._shilov(rng),
            self._phi(rng, 0),
            self._phi(rng, 0),
            self._phi(rng, 1),
            self._equi(rng, "torsion", w1=True, slot=0),
            self._equi(rng, "torsion", w1=False, slot=1),
            self._equi(rng, "random", w1=True, slot=2),
            self._equi(rng, "random", w1=False, slot=3),
            self._solve(rng, small),
            *(self._solve(rng, large) for _ in range(3)),
        ]

    @staticmethod
    def _json_op(kind, args, check):
        def run(api):
            return getattr(api, f"cli_{kind}")(args)

        def checked(result):
            code, text = result
            return code == 0 and check(json.loads(text))

        return Op(kind, run, checked)

    def _equi(self, rng, mode, w1, slot):
        ell = rng.choice((Fraction(5), Fraction(7, 3)))
        path = os.path.join(self.workdir, f"equi{slot}.csv")
        args = ["--ell", q(ell), "--out", path, "--mode", mode]
        if mode == "torsion":
            max_n = rng.randint(14, 16)
        else:
            max_n = rng.randint(10, 12)
            seed = rng.randrange(10**6)
            args += ["--seed", str(seed)]
        args += ["--max-n", str(max_n)] + (["--w1"] if w1 else [])

        def expected(n):
            if mode == "torsion":
                return n * n, *oracles.torsion_expectations(ell, n)
            counts = oracles.grid_draws(ell, n, random.Random(seed * 1_000_003 + n))
            return n * n, *oracles.atoms_vs_uniform(ell, counts)

        def check(result):
            code, text = result
            if code != 0 or text:
                return False
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if [int(row["n"]) for row in rows] != list(range(1, max_n + 1)):
                return False
            for row in rows:
                n = int(row["n"])
                count, ks, w, error = expected(n)
                got_ks = Fraction(int(row["ks_num"]), int(row["ks_den"]))
                if (
                    int(row["count"]) != count
                    or got_ks != ks
                    or float(row["ks_float"]) != float(ks)
                    or float(row["err_nt"]) != float(error)
                    or (w1 and float(row["w1_float"]) != float(w))
                ):
                    return False
            return True

        return Op("equi_run", lambda api: api.cli_equi_run(args), check)

    def _solve(self, rng, n_vertices):
        graph_path, target_path, g, target, uniform = rng.choice(self.solve_cases[n_vertices])
        if rng.random() < 0.5:
            normalize, gauge_point = "uniform", None
        else:
            gauge_point = rng.choice(g.vertices)
            normalize = f"point:{gauge_point}"
        args = ["--graph", graph_path, "--target", target_path, "--normalize", normalize]
        core, potential = self.rg.core, self.rg.potential

        def check(data):
            f = core.PiecewisePoly.from_dict(g, data)
            if gauge_point is None:
                gauge = core.integrate(f, uniform)
            else:
                gauge = f.value_at(g.vertex_point(gauge_point))
            return potential.d2(f) == target and gauge == 0

        return self._json_op("graph_solve", args, check)

    def _phi(self, rng, which):
        path, (vertices, edges) = self.phi_cases[which]
        p = gen.random_point(rng, vertices, edges)
        s = gen.random_point(rng, vertices, edges)
        if which == 0:
            expected = oracles.circle_pair_energy(edges[0][2], circle_offset(p), circle_offset(s))
        else:
            expected = oracles.effective_resistance(vertices, edges, p, s)
        args = ["--graph", path, "--p", cli_point(p), "--q", cli_point(s)]

        def check(data):
            return Fraction(data["energy"]) == expected and data["float"] == float(expected)

        return self._json_op("phi_energy", args, check)

    def _bound(self, rng, how):
        if how == "preset":
            preset = rng.choice(("neutral", "neron", "point"))
            ell = Fraction(rng.randint(2, 9)) if preset == "neron" else gen.positive_rational(rng)
            ell = max(ell, Fraction(1))
            intervals = {
                "neutral": [(Fraction(0), ell)],
                "neron": [(Fraction(i), Fraction(i + 1)) for i in range(int(ell))],
                "point": [(Fraction(0), Fraction(1))],
            }[preset]
            args = ["--ell", q(ell), "--preset", preset]
        else:
            ell = gen.positive_rational(rng)
            intervals = gen.interval_complement(rng, ell, rng.randint(1, 4))
            text = ",".join(f"({q(a)},{q(b)})" for a, b in intervals)
            args = ["--ell", q(ell), "--intervals", f"[{text}]"]
        coefficients = [1 / (2 * ell)] * len(intervals)
        if how == "c":
            for index in sorted(rng.sample(range(len(intervals)), rng.randint(1, len(intervals)))):
                coefficients[index] = gen.positive_rational(rng, 6, 4) / ell
                args += ["--c", f"{index + 1}:{q(coefficients[index])}"]
        expected = oracles.bump_bound(ell, intervals, coefficients)

        def check(data):
            return (
                Fraction(data["bound"]) == expected
                and Fraction(data["bound_num"], data["bound_den"]) == expected
            )

        return self._json_op("bound_compute", args, check)

    def _canheight(self, rng, bounded):
        if bounded:
            coefficients, p, x = gen.bounded_orbit(rng)
            max_iter = rng.randint(8, 11)
        else:
            coefficients, p, x = gen.certified_orbit(rng)
            max_iter = 8
        args = ["--poly", ",".join(q(c) for c in coefficients), "--p", str(p)]
        args += ["--x", q(x), "--max-iter", str(max_iter)]
        canheight = self.rg.canheight

        def check(data):
            value = Fraction(data["value"])
            if data["float"] != float(value) or data["units"] != f"log {p}":
                return False
            if bounded:
                return not data["converged"] and value == 0 and data["iterations"] == max_iter
            f = canheight.PolyMap.of(coefficients, p)
            image = canheight.canonical_local_height(f, f(x), max_iter)
            return data["converged"] and image.converged and image.value == f.degree * value

        return self._json_op("canheight", args, check)

    def _nt(self, rng):
        ell = gen.positive_rational(rng)
        t = gen.positive_rational(rng, 40, 6)
        args = ["--ell", q(ell), "--eval", q(t)]
        reduced = t - (t // ell) * ell

        def check(data):
            piece = data["potential"]["edges"]
            expected_piece = {"c2": q(1 / (2 * ell)), "c1": "-1/2", "c0": q(ell / 12)}
            value = oracles.nt_value(ell, reduced)
            return (
                len(piece) == 1
                and piece[0]["breakpoints"] == []
                and piece[0]["pieces"] == [expected_piece]
                and data["curvature"]
                == {"discrete": [], "density": [{"edge": 0, "breakpoints": [], "values": [q(1 / ell)]}]}
                and data["potential_at"] == {"t": q(reduced), "value": q(value), "float": float(value)}
            )

        return self._json_op("nt", args, check)

    def _shilov(self, rng):
        path, model = rng.choice(self.models)
        weights = shilov_weights(model)
        total = model[2]

        def check(data):
            return (
                {k: Fraction(v) for k, v in data["weights"].items()} == weights
                and Fraction(data["mass"]) == total
                and {k: Fraction(v) for k, v in data["normalized"].items()}
                == {k: w / total for k, w in weights.items()}
            )

        return self._json_op("shilov_measure", ["--model", path], check)


class EquiCli(Workload):
    """Report rows through the library next to every CLI subcommand.

    Each half builds its pools from its own seed stream; a round draws the
    report rows first, then the CLI calls.
    """

    name = "equi-cli"
    nominal_round_s = EquiSweep.nominal_round_s + CliSession.nominal_round_s

    def setup(self, api, rng):
        self.parts = [part(self.rg, api, self.seed, self.workdir) for part in (EquiSweep, CliSession)]

    def ops(self, rng, warm_up):
        return [op for part in self.parts for op in part.ops(rng, warm_up)]


WORKLOADS = {w.name: w for w in (PoissonFresh, HeightsReuse, EquiCli)}
