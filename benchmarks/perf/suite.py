"""Run the perf benchmark over several seeds, and compare two result files.

From the repository root::

    python3 benchmarks/perf/suite.py run --seeds 0-9 --out result.json
    python3 benchmarks/perf/suite.py run --seeds 0-9 --trace --out traced.json
    python3 benchmarks/perf/suite.py run --smoke
    python3 benchmarks/perf/suite.py compare parent.json change.json

``run`` starts one child ``run.py`` process per (workload, seed), one after
another, and records every run plus each metric's median, quartiles and
spread (interquartile range over the median) with the host's metadata.
``--smoke`` runs every workload once untraced and once traced, at about 1/50
of its size, and fails if any output check fails. ``compare`` prints one row per (metric,
workload) with a verdict against the bound in ``BENCHMARK.json``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """``"0-9"`` or ``"0,1,5"`` (ranges and items may mix)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def host_metadata() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "git_commit": commit,
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, exit=proc.returncode,
                  wall_s=wall, log=lines[:-1])
    if proc.returncode != 0:
        result["stderr"] = proc.stderr
    return result


def summarize(runs: list[dict]) -> dict:
    """``{workload: {metric: {median, q1, q3, spread, n, unit}}}``."""
    summary: dict = {}
    for run in runs:
        for name, m in run["metrics"].items():
            summary.setdefault(run["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for metrics in summary.values():
        for entry in metrics.values():
            entry.update(quartiles(entry.pop("values")))
    return summary


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def cmd_run(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    traces = (False, True) if args.smoke else (args.trace,)
    seconds = 1.0 if args.smoke else args.seconds
    runs = []
    for seed in seeds:  # seed-major: workloads alternate, as pairs should
        for name in names:
            for trace in traces:
                run = run_child(name, seed, seconds, trace, args.smoke)
                runs.append(run)
                status = "ok" if run["exit"] == 0 and run["correct"] else "FAILED"
                print(f"{name:15s} seed {seed:3d} {'traced' if trace else '':6s} "
                      f"{run['wall_s']:6.1f} s  {status}", flush=True)
                if status != "ok":
                    print(run.get("stderr", ""), file=sys.stderr)
    doc = {
        "host": host_metadata(),
        "seeds": seeds,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "runs": runs,
        "summary": summarize(runs),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print_summary(doc["summary"])
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


def print_summary(summary: dict) -> None:
    print(f"\n{'workload':15s} {'metric':38s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'n':>3s} unit")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:15s} {name:38s} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:7.3f} {s['n']:3d} {s['unit']}")


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------
def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, str]:
    """Verdict for one (metric, workload) and the pair-win count.

    ``worse`` is the change's median worsening beyond ``bound`` (a share of
    the parent's median); ``unresolved`` is a spread wider than the bound
    with overlapping runs; ``better`` needs the medians to differ by more
    than the parent's own quartile distance and, with at least ten pairs,
    the change to win at least nine tenths of them.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    base = abs(p["median"]) or 1.0
    worse_by = sign * (c["median"] - p["median"]) / base
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    pair_note = f"{wins}/{len(pairs)}"
    if bound is None:
        return "-", pair_note
    overlap = min(change) <= max(parent) and min(parent) <= max(change)
    if max(p["spread"], c["spread"]) > bound and overlap:
        return "unresolved", pair_note
    if worse_by > bound:
        return "worse", pair_note
    clear = -worse_by * base > p["q3"] - p["q1"]
    if clear and (len(pairs) < 10 or wins >= 0.9 * len(pairs)):
        return "better", pair_note
    return "within", pair_note


def cmd_compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}

    def values(doc, workload, metric):
        return [r["metrics"][metric]["value"] for r in doc["runs"]
                if r["workload"] == workload and metric in r["metrics"]]

    print(f"parent {parent['host']['git_commit'][:12]} ({len(parent['runs'])} runs)"
          f" vs change {change['host']['git_commit'][:12]} ({len(change['runs'])} runs)")
    print(f"{'metric':38s} {'workload':15s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'bound':>6s} "
          f"{'pairs':>6s} verdict")
    worse = 0
    for workload, metrics in parent["summary"].items():
        for metric, ps in metrics.items():
            pv, cv = values(parent, workload, metric), values(change, workload, metric)
            if not cv or metric not in spec:
                continue
            better, bound = spec[metric]
            cs = quartiles(cv)
            v, pairs = verdict(pv, cv, better, bound)
            worse += v == "worse"
            ratio = cs["median"] / ps["median"] if ps["median"] else float("nan")
            print(f"{metric:38s} {workload:15s} "
                  f"{ps['median']:12.5g} [{ps['q1']:9.4g}, {ps['q3']:9.4g}] "
                  f"{cs['median']:12.5g} [{cs['q1']:9.4g}, {cs['q3']:9.4g}] "
                  f"{ratio:7.3f} {'' if bound is None else f'{bound:.2f}':>6s} "
                  f"{pairs:>6s} {v}")
    print("ratio = change median / parent median; its base is the parent "
          "median in the metric's unit.")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run workloads over seeds")
    p_run.add_argument("--seeds",
                       help="seeds, e.g. 0-9 or 0,0,0 (default 0-9; 0 with --smoke)")
    p_run.add_argument("--workloads", help="comma-separated (default: all)")
    p_run.add_argument("--seconds", type=float, default=None,
                       help="measured seconds per run (default: BENCHMARK.json)")
    p_run.add_argument("--trace", action="store_true", help="per-layer runs")
    p_run.add_argument("--smoke", action="store_true",
                       help="every workload untraced and traced, at about 1/50 size")
    p_run.add_argument("--out", help="write the result JSON here")
    p_cmp = sub.add_parser("compare", help="compare two result files")
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return cmd_compare(args)
    if args.seeds is None:
        args.seeds = "0" if args.smoke else "0-9"
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
