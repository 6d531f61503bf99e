"""fatflip benchmark: runs one workload in child processes and prints its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

The workload runs in a child process of its own (``worker.py``), so that
its peak RSS is its own.  With ``--trace 0`` the child is untraced and its
op timings give the end-to-end metrics.  End-to-end times are given at the
reference speed: each round of ops and each burst of set-ups is multiplied
by the speed the worker's probe measured in it (see ``SpeedProbe``).  The
human-readable lines also show them as measured.  With ``--trace 1`` an
untraced child runs first, then a traced child runs a fixed number of
rounds; the per-layer metrics come from the traced child, and the
difference between the two, each at the reference speed, is the tracing
overhead.  ``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
``--smoke`` runs the workload at tiny sizes for the benchmark's own tests.

Metric names and units are read from ``BENCHMARK.json``.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is nonzero if any op or check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DEFAULT_SEED = json.loads((HERE / "baseline.json").read_text())["default_seed"]
# rounds of the traced run: a fixed piece of work of a few seconds
TRACE_ROUNDS = {"flipgraph": 6, "walk": 20, "homology": 4, "selftest": 2}
TIME_BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def nearest_rank(values, q: float) -> float:
    """The smallest sample with at least a share q of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_child(workload, seed, seconds, trace_rounds, smoke, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           repr(seconds), str(trace_rounds)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise ChildFailed("%s: child timed out" % workload) from err
    if proc.returncode != 0:
        raise ChildFailed("%s: child exited with status %d"
                          % (workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def op_times(child: dict, scaled: bool = True):
    """Each op's time as the median of its repeats over the complete rounds.

    Every round repeats the same ops, so the median drops the bursts of
    other work on a shared machine that hit some rounds and not others.
    Times are at the reference speed, each round multiplied by the probe's
    speed in it, or as measured.
    """
    size = max(len(r) for r in child["op_s"])
    rounds = [[t * (speed if scaled else 1) for t in r]
              for r, speed in zip(child["op_s"], child["round_speed"])
              if len(r) == size]
    return [statistics.median(times) for times in zip(*rounds)], len(rounds)


def end_to_end(untraced: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics, at the reference speed or as measured."""
    ops, _ = op_times(untraced, scaled)
    setup = [statistics.mean(times) * (speed if scaled else 1)
             for times, speed in zip(untraced["setup_s"],
                                     untraced["setup_speed"])]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": nearest_rank(ops, 0.5) * 1e3,
        "op_p90_ms": nearest_rank(ops, 0.9) * 1e3,
        "peak_rss_mb": untraced["peak_rss_mb"],
    }


def per_layer(workload, untraced: dict, traced: dict, declared):
    """The per-layer metrics, and the declared names the traced run lacks."""
    out = dict(traced["layers"], **traced["work"])
    # work counts of the other workloads, which do none of that work here
    for name, cls in WORKLOADS.items():
        if name != workload:
            out.update(dict.fromkeys(cls.work, 0))
    out["trace.overhead_frac"] = (sum(op_times(traced)[0])
                                  / sum(op_times(untraced)[0]) - 1)
    traced_s = sum(map(sum, traced["op_s"] + traced["setup_s"]))
    out["trace.self_frac"] = sum(v for k, v in traced["layers"].items()
                                 if k.endswith(".self_s")) / traced_s
    missing = [name for name in declared if name not in out]
    out.update(dict.fromkeys(missing, 0))
    return out, missing


def measure(workload, seed, seconds, trace, smoke):
    """Run the children of one workload; returns (result, human lines)."""
    deadline = time.monotonic() + TIME_BUDGET_S
    untraced = run_child(workload, seed, seconds, 0, smoke, deadline)
    children = [untraced]
    attempted, failed = untraced["attempted"], untraced["failed"]
    if trace:
        declared = SPEC["per_layer"]
        traced = run_child(workload, seed, seconds,
                           1 if smoke else TRACE_ROUNDS[workload], smoke,
                           deadline)
        children.append(traced)
        metrics, missing = per_layer(workload, untraced, traced,
                                     [m["name"] for m in declared])
        checks = [(not missing,
                   "traced run produced no %s" % ", ".join(missing)),
                  (traced["work"] == untraced["work"],
                   "work counts differ: untraced %s, traced %s"
                   % (untraced["work"], traced["work"])),
                  (metrics["trace.self_frac"] <= 1,
                   "layer self times exceed the traced time")]
        attempted += traced["attempted"] + len(checks)
        failed += traced["failed"]
        for ok, message in checks:
            if not ok:
                failed += 1
                traced["failures"].append(message)
        notes = {}
    else:
        declared = SPEC["end_to_end"]
        metrics = end_to_end(untraced)
        ops, rounds = op_times(untraced)
        notes = {name: "as measured %.6g" % value
                 for name, value in end_to_end(untraced, scaled=False).items()}
        notes["op_p50_ms"] += "; n=%d ops, each the median of %d rounds" % (
            len(ops), rounds)
        notes["peak_rss_mb"] = ("machine ran at %.3f of the reference speed"
                                % statistics.median(untraced["round_speed"]))
    for child in children:
        for message in child["failures"]:
            print("%s: FAILED %s" % (workload, message), file=sys.stderr)
    lines = [("%-10s %-44s %14.6g %-5s %s" % (workload, m["name"],
                                              metrics[m["name"]], m["unit"],
                                              notes.get(m["name"], ""))).rstrip()
             for m in declared]
    lines.append("%-10s %-44s %14.6g ratio" % (workload, "failed_frac",
                                               failed / attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    check_schema(result, declared)
    return result, lines


def check_schema(result: dict, declared) -> None:
    names = sorted(m["name"] for m in declared)
    if sorted(result["metrics"]) != names:
        raise ValueError("metrics %s do not match BENCHMARK.json"
                         % sorted(result["metrics"]))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError("metric %s has value %r" % (name, value))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        result, lines = measure(args.workload, args.seed, seconds, args.trace,
                                args.smoke)
    except (ChildFailed, ValueError, KeyError) as err:
        print("benchmark error: %s" % err, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
