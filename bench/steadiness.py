"""Repeat the benchmark over seeds and report how much each metric spreads.

    python3 bench/steadiness.py --workloads poisson-fresh --seeds 1-10 --out FILE

Runs ``bench/run.py`` once per (workload, seed), each in a fresh process,
one at a time, with the run length BENCHMARK.json fixes.  For every
end-to-end metric it prints the median and the quartile spread (third
minus first quartile of ``statistics.quantiles(values, n=4)``, as a share
of the median) next to the metric's bound, and writes every per-run value
to ``--out``.  ``--against`` an earlier ``--out`` file also prints how far
each median moved and flags a move worse than the bound.  With ``--trace``
it instead makes traced runs, each seed twice, and checks that every count
repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".unknowns", ".atoms", ".iterations", ".unconverged", "_bits_max", ".bytes_out")


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, plus its wall time and unadjusted timings."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    prefix = "unadjusted: "
    unadjusted = [line[len(prefix) :] for line in done.stdout.splitlines() if line.startswith(prefix)]
    result["unadjusted"] = json.loads(unadjusted[0]) if unadjusted else {}
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace", action="store_true", help="check traced counts repeat")
    parser.add_argument("--out", default=None, help="write per-run values as JSON here")
    parser.add_argument("--commit", default="unknown", help="commit id to record with the runs")
    parser.add_argument("--against", default=None, help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seeds_of(args.seeds)
    seconds = spec["run_seconds"]
    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "commit": args.commit,
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        if args.trace:
            mismatches = []
            for seed in seeds:
                first, second = (run_once(workload, seed, seconds, 1) for _ in range(2))
                for name, entry in first["metrics"].items():
                    if name.endswith(COUNT_SUFFIXES) and entry != second["metrics"][name]:
                        mismatches.append((seed, name, entry["value"], second["metrics"][name]["value"]))
                report["workloads"].setdefault(workload, []).append(
                    {"seed": seed, "metrics": {k: v["value"] for k, v in first["metrics"].items()}}
                )
            print(f"{workload}: {'counts repeat' if not mismatches else mismatches}")
            steady &= not mismatches
            continue
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            runs.append(
                {
                    "seed": seed,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "wall_s": result["wall_s"],
                    "unadjusted": result["unadjusted"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
            )
            values = {k: round(v, 4) for k, v in runs[-1]["metrics"].items()}
            print(workload, seed, f"wall {result['wall_s']:.1f} s", values, flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median, share = spread([run["metrics"][name] for run in runs])
            summary[name] = {"median": median, "spread": share, "bound": metric["bound"]}
            flag = "ok" if share < metric["bound"] / 3 else "WIDE"
            steady &= flag == "ok"
            line = f"  {name:12s} median {median:12.5g}  spread {share:7.2%}  bound {metric['bound']:.0%}  {flag}"
            if earlier and workload in earlier["workloads"]:
                before = earlier["workloads"][workload]["summary"][name]["median"]
                change = median / before - 1
                worse = change if metric["better"] == "lower" else -change
                summary[name]["change"] = change
                line += f"  vs earlier {change:+7.2%} {'WORSE' if worse > metric['bound'] else 'ok'}"
                steady &= worse <= metric["bound"]
            if name in runs[0]["unadjusted"]:
                raw_median, raw_share = spread([run["unadjusted"][name] for run in runs])
                summary[name]["unadjusted"] = {"median": raw_median, "spread": raw_share}
                line += f"  (unadjusted: median {raw_median:.5g}, spread {raw_share:.2%})"
            print(line)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
