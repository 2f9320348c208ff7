"""One benchmark pass in a fresh interpreter; started by ``run.py``.

Imports ``sphq`` from the checkout's ``src``, sets the workload up, runs
its op list once, checks every output, and prints one JSON line: set-up
time (from the parent's spawn time), per-op latencies, failures, peak
RSS and, when traced, the per-layer statistics.

Every pass runs under a ``SpeedSampler`` and reports op times both
host-speed normalised and raw; per-layer times are normalised.
"""

import argparse
import json
import os
import resource
import sys
import time

from speed import SpeedSampler
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_sphq():
    """Import every ``sphq`` module from this checkout, or exit."""
    sys.path.insert(0, SRC)
    import sphq
    import sphq.cli  # noqa: F401  (imports every other sphq module)
    where = os.path.dirname(os.path.abspath(sphq.__file__))
    if where != os.path.join(SRC, "sphq"):
        sys.exit("sphq imported from %s, not from this checkout" % where)


def run(workload, seed, spawned_at, sampler, tracer=None):
    """Set up, run and check one pass; returns the result dict."""
    from workloads import WORKLOADS, op_key

    if tracer:
        tracer.install()
    try:
        w = WORKLOADS[workload]()
        w.setup(seed)
        setup_end = time.monotonic()
        results = w.run(time.monotonic)
    finally:
        sampler.stop()
        if tracer:
            tracer.uninstall()
    setup_s, _ = sampler.seconds(spawned_at, setup_end)
    ops = [[op_key(op)] + list(sampler.seconds(start, end))
           for op, start, end, _ in results]
    out = {
        "setup_s": setup_s,
        "ops": ops,                     # [key, normalised s, raw s]
        "slowdown": sampler.slowdown(),
        "failed": w.check_all(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["layers"] = tracer.layer_stats(
            lambda start, end: sampler.seconds(start, end)[0])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawning")
    p.add_argument("--spans-out", help="write the span list here (traced runs)")
    args = p.parse_args(argv)
    tracer = Tracer() if args.trace else None
    sampler = SpeedSampler()
    sampler.start()
    import_sphq()
    out = run(args.workload, args.seed, args.spawned_at, sampler, tracer)
    if tracer and args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    for op, msg in out["failed"]:
        print("FAILED %s: %s" % (op, msg), file=sys.stderr)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
