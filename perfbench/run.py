"""sphq benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # table of every metric

Each pass runs in a fresh interpreter (``worker.py``), one at a time, with
``SPHQ_THREADS`` removed so the program runs with its own defaults.

* ``--trace 0`` repeats passes until ``--seconds`` have passed (at least
  two).  Times are host-speed normalised (see ``speed.py``).  Each op's
  latency is its best over the passes, as interference only adds time;
  ``wall_s`` is the sum of the per-op latencies and the percentiles are
  taken over them.  Set-up time and peak RSS are medians over the
  passes.  The raw (not normalised) wall time goes to stderr.
* ``--trace 1`` runs one untraced pass and two traced passes.  The
  traced passes must agree on every deterministic count; the per-layer
  metrics are their mean, and ``trace.overhead_ratio`` is the traced
  over the untraced ``wall_s``.  Every layer statistic goes to stderr.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero if any op failed,
and no JSON line is printed if a pass could not run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy
from scipy.special import betainc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(HERE, "out")
WORKLOADS = ("corpus", "query_mix", "derived_ops")
MIN_PASSES = 2
DEADLINE_S = 175.0
# corpus criteria bound by the path-basis build, perfectify and Hom/Serre
CRITERIA_SHOWN = ("03", "07", "12")
DETERMINISTIC_STATS = ("calls", "cells", "max_cells", "out_summands",
                       "checked", "not_witnessed", "rejected")


class PassFailed(Exception):
    """A worker pass exited abnormally or printed no result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_pass(workload, seed, trace, deadline, spans_out=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPHQ_THREADS", "PYTHONPATH")}
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise PassFailed("%s pass timed out" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("%s pass exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def per_op(passes, column):
    """Best of each op's ``column`` (1 normalised, 2 raw) over passes;
    every pass runs the same op list."""
    columns = zip(*[[op[column] for op in p["ops"]] for p in passes])
    return [min(c) for c in columns]


def wall(p):
    return sum(op[1] for op in p["ops"])


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a beta-weighted
    mean of all order statistics.  Op costs cluster by fixture and kind,
    with gaps between the clusters; the plain order statistic jumps
    across a gap when one op near it changes, this estimate does not."""
    x = numpy.sort(numpy.asarray(values))
    n = len(x)
    p = q / 100.0
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(cdf), x))


def end_to_end(passes, lat):
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (sum(lat), "s"),
        "latency_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }


def counts(layers):
    return {(layer, stat): value for layer, stats in layers.items()
            for stat, value in stats.items() if stat in DETERMINISTIC_STATS}


def module_self_s(layers):
    out = {}
    for layer, stats in layers.items():
        if "self_s" in stats:
            module = layer.split(".")[0]
            out[module] = out.get(module, 0.0) + stats["self_s"]
    return out


def layer_metric(traced, name):
    """Value of a per-layer metric ``<layer>.<stat>`` (mean of the traced
    passes), a module total ``<module>.self_s``, or the overhead ratio."""
    layer, stat = name.rsplit(".", 1)
    values = []
    for p in traced:
        layers = p["layers"]
        if layer in layers:
            values.append(layers[layer].get(stat, 0))
        elif stat == "self_s":
            values.append(module_self_s(layers).get(layer, 0.0))
        else:
            raise KeyError(name)
    return statistics.mean(values)


def measure(workload, seed, seconds, trace, spec):
    deadline = time.monotonic() + DEADLINE_S
    if not trace:
        passes, start = [], time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            passes.append(run_pass(workload, seed, 0, deadline))
        lat = per_op(passes, 1)
        metrics = end_to_end(passes, lat)
        wanted = spec["end_to_end"]
        correct = True
        op_latency = dict(zip((op[0] for op in passes[0]["ops"]), lat))
        print("%s: %d passes, raw wall_s %.4f, host slowdown %s" % (
            workload, len(passes), sum(per_op(passes, 2)),
            " ".join("%.2f" % p["slowdown"] for p in passes)), file=sys.stderr)
    else:
        os.makedirs(SPANS_DIR, exist_ok=True)
        passes = [run_pass(workload, seed, 0, deadline)]
        traced = [run_pass(workload, seed, 1, deadline, os.path.join(
            SPANS_DIR, "spans-%s-seed%d-%d.json" % (workload, seed, i)))
            for i in (1, 2)]
        correct = counts(traced[0]["layers"]) == counts(traced[1]["layers"])
        if not correct:
            print("deterministic counts differ between the two traced passes",
                  file=sys.stderr)
        untraced_wall = wall(passes[0])
        traced_wall = statistics.mean(wall(p) for p in traced)
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                value = traced_wall / untraced_wall
            else:
                value = layer_metric(traced, m["name"])
            metrics[m["name"]] = (value, m["unit"])
        wanted = spec["per_layer"]
        passes += traced
        op_latency = {}
        print_layers(traced)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    return result, op_latency


def print_layers(traced):
    """Every layer statistic of the traced passes (mean), to stderr."""
    layers = traced[0]["layers"]
    for layer in sorted(layers):
        for stat in sorted(layers[layer]):
            value = statistics.mean(p["layers"][layer][stat] for p in traced)
            print("%-44s %-14s %14.6g" % (layer, stat, value), file=sys.stderr)


def print_table(seed, seconds, spec):
    """Every end-to-end metric of every workload; returns the exit code."""
    code = 0
    for workload in WORKLOADS:
        result, op_latency = measure(workload, seed, seconds, 0, spec)
        for name, m in result["metrics"].items():
            print("%-12s %-16s %14.4f %s" % (workload, name, m["value"],
                                             m["unit"]))
        if workload == "corpus":
            for number in CRITERIA_SHOWN:
                print("%-12s %-16s %14.4f s" % (
                    workload, "crit%s_s" % number,
                    op_latency["criterion %s" % number]))
        print("%-12s %-16s %9d / %d failed" % (workload, "ops", result["failed"],
                                               result["attempted"]))
        if not result["correct"]:
            code = 1
    return code


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sphq", "__init__.py")):
        print("no sphq sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.workload == "all":
            return print_table(args.seed, seconds, spec)
        result, _ = measure(args.workload, args.seed, seconds, args.trace,
                            spec)
    except PassFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
