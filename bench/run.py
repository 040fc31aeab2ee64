"""One command for the pull path: six workloads against the real CLI.

Two ways to call it.

The benchmark driver's contract (one workload, one kind of pass, one
JSON object as the last line of stdout)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` makes one untraced pass and reports the gated end-to-end
metrics; ``--trace 1`` makes an untraced and a traced pass of the same
inputs and reports every per-layer metric.

The full report (every workload, ``--repeats`` untraced passes whose
medians are the end-to-end numbers, then one traced pass for the stage
table; ``--out`` writes the run record, ``--aa`` repeats the whole set
twice and prints the two side by side)::

    PYTHONPATH=src python -m bench.run [--seed S] [--repeats R]
        [--workload W] [--seconds T] [--out FILE] [--aa]

Exit status is non-zero when any output check fails (or, with
``--aa``, when the two sets disagree by more than a bound).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench: the program under test is missing: no "
             f"{os.path.join(ROOT, 'src', 'repro')}")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402 - after the path bootstrap above
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from bench import metrics  # noqa: E402
from bench.workloads import (BY_NAME, WORKLOADS, Pass, Workload,  # noqa: E402
                             run_pass)

NOISY_LOAD = 1.0


def manifest() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def traced_pair(workload: Workload, seed: int, seconds: float,
                ) -> Tuple[Pass, Pass]:
    """An untraced and a traced pass of the same inputs.  The traced
    one is skipped (an empty pass stands in) when the first already
    failed: there is nothing valid to explain."""
    untraced = run_pass(workload, seed, seconds, traced=False)
    if untraced.problems:
        return untraced, Pass(workload.name, seed, True)
    traced = run_pass(workload, seed, seconds, traced=True)
    for problem in metrics.count_mismatches(untraced, traced):
        traced.fail(f"traced run diverged: {problem}", traced.attempted)
    return untraced, traced


def print_values(title: str, values: Dict[str, Optional[float]]) -> None:
    print(f"  {title}")
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {name:<48} {shown:>14} {metrics.UNITS[name]}")


def report_problems(*passes: Pass) -> None:
    for result in passes:
        for problem in result.problems:
            print(f"  CHECK FAILED ({result.workload}, "
                  f"{'traced' if result.traced else 'untraced'}): "
                  f"{problem}")


# -- the driver's contract -------------------------------------------------

def contract(workload: Workload, seed: int, seconds: float,
             trace: int) -> int:
    if trace:
        untraced, traced = traced_pair(workload, seed, seconds)
        passes = [untraced, traced]
        values = metrics.per_layer(untraced, traced, workload)
        print_values(f"{workload.name}: per-layer (traced pass)", values)
    else:
        passes = [run_pass(workload, seed, seconds, traced=False)]
        every = metrics.end_to_end(passes[0], workload)
        print_values(f"{workload.name}: end-to-end (untraced pass, "
                     f"{metrics.sample_counts(passes[0])})", every)
        values = {name: every[name] for name, *_ in metrics.GATED}
    report_problems(*passes)
    correct = not any(result.problems for result in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r.attempted for r in passes)),
        "failed": sum(r.failed for r in passes),
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


# -- the full report -------------------------------------------------------

def machine_info(seed: int, seconds: float, repeats: int) -> Dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    load = os.getloadavg()[0]
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "load_1min_at_start": load, "noisy": load > NOISY_LOAD,
            "seed": seed, "seconds": seconds, "repeats": repeats,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def run_set(workloads: List[Workload], seed: int, seconds: float,
            repeats: int, traced: bool) -> Tuple[Dict, bool]:
    """``repeats`` untraced passes per workload (medians are the
    end-to-end numbers) and, with ``traced``, the stage table."""
    record: Dict[str, Dict] = {}
    clean = True
    for workload in workloads:
        passes = [run_pass(workload, seed, seconds, traced=False)
                  for _ in range(repeats)]
        raw = [metrics.end_to_end(result, workload) for result in passes]
        medians = {
            name: (statistics.median(
                [row[name] for row in raw if row[name] is not None])
                if any(row[name] is not None for row in raw) else None)
            for name in raw[0]}
        entry = {"raw": raw, "median": medians,
                 "samples": metrics.sample_counts(passes[-1]),
                 "failed": sum(r.failed for r in passes),
                 "attempted": sum(r.attempted for r in passes),
                 "problems": [p for r in passes for p in r.problems]}
        print(f"{workload.name}")
        print_values(f"end-to-end, median of {repeats} untraced "
                     f"pass(es), {entry['samples']}", medians)
        report_problems(*passes)
        if traced:
            plain, spanned = traced_pair(workload, seed, seconds)
            entry["stages"] = metrics.per_layer(plain, spanned, workload)
            entry["problems"] += plain.problems + spanned.problems
            print_values("per-layer (one traced pass)", entry["stages"])
            report_problems(plain, spanned)
        clean = clean and not entry["problems"]
        record[workload.name] = entry
    return record, clean


def aa_report(first: Dict, second: Dict, bounds: Dict[str, float],
              directions: Dict[str, str]) -> bool:
    """Two sets of the same tree side by side; True when every gated
    metric's medians agree within its bound."""
    agree = True
    print(f"{'workload':<20} {'metric':<20} {'set A median':>13} "
          f"{'A q1..q3':>21} {'set B median':>13} {'B q1..q3':>21} "
          f"{'worse by':>9} {'bound':>6}")
    for name, entry in first.items():
        for metric, bound in bounds.items():
            a = [row[metric] for row in entry["raw"]]
            b = [row[metric] for row in second[name]["raw"]]
            a_low, a_mid, a_high = quartiles(a)
            b_low, b_mid, b_high = quartiles(b)
            worse = (b_mid - a_mid) / a_mid
            if directions[metric] == "higher":
                worse = -worse
            flag = "" if worse <= bound else "  <-- outside bound"
            agree = agree and worse <= bound
            print(f"{name:<20} {metric:<20} {a_mid:>13.6g} "
                  f"{a_low:>10.5g}..{a_high:<9.5g} {b_mid:>13.6g} "
                  f"{b_low:>10.5g}..{b_high:<9.5g} {worse:>8.1%} "
                  f"{bound:>6.0%}{flag}")
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    declared = manifest()
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input-generator seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]),
                        help="nominal length of a timed section; task "
                             "counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver contract: one pass kind, one JSON "
                             "result line (needs --workload)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced passes per workload in the full "
                             "report; medians are reported (default 3)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the run record (JSON) here")
    parser.add_argument("--aa", action="store_true",
                        help="run the set twice and compare the two")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return contract(BY_NAME[args.workload], args.seed, args.seconds,
                        args.trace)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    chosen = [BY_NAME[args.workload]] if args.workload else WORKLOADS
    record = {"machine": machine_info(args.seed, args.seconds,
                                      args.repeats)}
    if record["machine"]["noisy"]:
        print(f"note: 1-min load average "
              f"{record['machine']['load_1min_at_start']:.2f} > "
              f"{NOISY_LOAD}: this run is flagged noisy")
    record["workloads"], clean = run_set(
        chosen, args.seed, args.seconds, args.repeats, traced=True)
    if args.aa:
        record["workloads_b"], clean_b = run_set(
            chosen, args.seed, args.seconds, args.repeats, traced=False)
        clean = clean and clean_b
        bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
        directions = {m["name"]: m["better"]
                      for m in declared["end_to_end"]}
        record["aa_agree"] = aa_report(
            record["workloads"], record["workloads_b"], bounds,
            directions)
        clean = clean and record["aa_agree"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"run record written to {args.out}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
