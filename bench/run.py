"""redgraph benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload poisson-fresh --seed 1 --seconds 15 --trace 0

Load model: closed loop, one client, one process, one thread.  The library
is imported from ``src/`` of this checkout.  Set-up (import, pools, files
and an untimed warm-up round) is repeated ``SETUPS`` times and ``setup_s``
is their median.  The timed phase then runs whole rounds of ops until the
op clock (the summed latency of the ops, excluding the untimed oracle
checks and the generation of each round's inputs) reaches ``--seconds``;
the op metrics are taken over every op of every timed round.  Every op is
checked and counted in ``attempted``.

Shared hosts run this single thread up to about 1.9x slower for stretches
of seconds to minutes, which no affordable run length averages away.  So
every set-up and every op is bracketed by a host probe (a fixed Fraction
loop that shares no code with redgraph), and its time is reported at
reference host speed: multiplied by ``REFERENCE_PROBE_S`` over the mean
of the probes before and after it.  The unadjusted figures are printed
above the result line.

``--trace 1`` makes a separate run: one traced set-up, then a fixed number
of rounds (from the seed and ``--seconds`` only, so every count repeats)
with a span around each call into the library, alternating with as many
fresh rounds run untraced; ``trace.overhead`` is traced over untraced
op-clock time.  Spans are kept in memory and written to ``.bench_out/``
when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json lists for the mode.  Exit code 2 means the
benchmark could not run at all (for instance, no ``src/redgraph`` here).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9
MAX_REPORTED_FAILURES = 5
# the host probe's time at full speed on a 2-vCPU Intel Xeon VM (Python 3.11)
REFERENCE_PROBE_S = 0.0005


def host_probe() -> float:
    """Seconds a fixed Fraction loop takes right now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time measured between two host probes, rescaled to reference host speed."""
    return seconds * REFERENCE_PROBE_S * 2 / (before + after)


def fresh_import():
    """Import redgraph and its CLI from scratch, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "redgraph" or m.startswith("redgraph.")]:
        del sys.modules[name]
    return importlib.import_module("redgraph"), importlib.import_module("redgraph.cli")


class Runner:
    """Runs ops, times them and keeps the failure count."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def execute(self, op, api, label) -> float:
        """Run one op, check it, return its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run(api)
        except Exception:
            latency = time.perf_counter() - start
            self._fail(label, op.kind, traceback.format_exc())
            return latency
        latency = time.perf_counter() - start
        try:
            ok = op.check(result)
        except Exception:
            self._fail(label, op.kind, traceback.format_exc())
            return latency
        if not ok:
            self._fail(label, op.kind, "oracle mismatch")
        return latency

    def _fail(self, label, kind, detail) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {kind} op in {label}: {detail}", file=sys.stderr)

    def rounds(self, workload, api, first, count, tracer=None):
        """Latencies of ``count`` whole rounds from round ``first``."""
        latencies = []
        for r in range(first, first + count):
            for i, op in enumerate(workload.round(r)):
                if tracer is None:
                    latencies.append(self.execute(op, api, f"round {r}"))
                else:
                    with tracer.op(f"{r}.{i}", op.kind):
                        latencies.append(self.execute(op, api, f"round {r}"))
        return latencies


def set_up(workload_cls, seed, workdir, runner, tracer=None):
    """Import, build the workload's pools and files, run the warm-up round."""
    from api import bind

    rg, cli = fresh_import()
    raw = bind(rg, cli)
    api = raw if tracer is None else bind(rg, cli, tracer)
    workload = workload_cls(rg, api, seed, workdir)
    runner.rounds(workload, api, -1, 1, tracer)
    return workload, api, raw


def timed_run(workload_cls, args, workdir, runner):
    setup_times = []
    for _ in range(SETUPS):
        # every set-up starts from a collected heap, not from the previous
        # set-up's garbage
        gc.collect()
        before = host_probe()
        start = time.perf_counter()
        workload, api, _ = set_up(workload_cls, args.seed, workdir, runner)
        elapsed = time.perf_counter() - start
        setup_times.append(at_reference_speed(elapsed, before, host_probe()))
    raw, latencies, probes = [], [], [host_probe()]
    rounds = 0
    while sum(raw) < args.seconds:
        for op in workload.round(rounds):
            raw.append(runner.execute(op, api, f"round {rounds}"))
            probes.append(host_probe())
            latencies.append(at_reference_speed(raw[-1], probes[-2], probes[-1]))
        rounds += 1

    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in latencies if x * 1e3 > metrics["op_p90_ms"])
    print(
        f"{workload_cls.name} seed {args.seed}: {rounds} rounds, {len(latencies)} ops "
        f"({beyond} beyond p90), op clock {sum(raw):.3f} s; {SETUPS} set-ups; "
        f"host probe median {statistics.median(probes) * 1e3:.3f} ms "
        f"(reference {REFERENCE_PROBE_S * 1e3:g} ms)"
    )
    unadjusted = {
        "ops_per_s": len(raw) / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
    }
    print(f"unadjusted: {json.dumps(unadjusted)}")
    return metrics


def traced_run(workload_cls, args, workdir, runner):
    from spans import Tracer

    tracer = Tracer()
    workload, api, raw = set_up(workload_cls, args.seed, workdir, runner, tracer)
    rounds = max(1, round(args.seconds / (2 * workload_cls.nominal_round_s)))
    traced, plain = [], []
    for r in range(rounds):
        # even rounds traced, odd rounds untraced, so load drift hits both alike
        traced += runner.rounds(workload, api, 2 * r, 1, tracer)
        plain += runner.rounds(workload, raw, 2 * r + 1, 1)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = sum(traced) / sum(plain)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload_cls.name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    print(
        f"{workload_cls.name} seed {args.seed}: {len(traced)} traced ops in {rounds} rounds, "
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "redgraph" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no src/redgraph or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from api import COUNTERS, SPANS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        if args.trace:
            produced = traced_run(WORKLOADS[args.workload], args, workdir, runner)
            known = {f"{s}.{stat}" for s in SPANS.values() for stat in ("calls", "busy_s", "p90_ms")}
            known.update(COUNTERS, ["trace.overhead"])
        else:
            produced = timed_run(WORKLOADS[args.workload], args, workdir, runner)
            known = set(produced)

    metrics = {}
    for metric in wanted:
        if metric["name"] not in known:
            print(f"error: the benchmark does not produce {metric['name']}", file=sys.stderr)
            return 2
        value = produced.get(metric["name"], 0)
        if not math.isfinite(value):
            print(f"error: {metric['name']} is {value}", file=sys.stderr)
            return 2
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:48s} {value:>16.6g} {metric['unit']}")
    fail_ratio = runner.failed / runner.attempted
    print(f"{'fail_ratio':48s} {fail_ratio:>16.6g} ({runner.failed} of {runner.attempted} ops)")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
