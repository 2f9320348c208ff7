"""Record the outputs the benchmark checks against, from the current commit.

Runs every op each workload can draw, for any seed, and writes
``golden/<workload>.json``: the output digest of each op, plus the input
lists the op generators draw from.  Run it only on a commit whose
outputs are known good (the benchmark was recorded on the commit that
introduced it):

    python3 perfbench/record.py [--workload NAME ...]

The independent checks in ``workloads.py`` run on every recorded op, so a
recording that contradicts the oracle stops with an error.
"""

import argparse
import json
import os
import sys
import time

import worker
from workloads import (DERIVED_INPUT_CAP, FIXTURES, GOLDEN, Corpus, DerivedOps,
                       QueryMix, op_key, standard_descs)


def record_ops(w, ops):
    golden = {}
    for i, op in enumerate(ops):
        golden[op_key(op)] = w.check(op, w.run_op(op))
        if i % 200 == 0:
            print("%s %d/%d" % (w.name, i, len(ops)), file=sys.stderr)
    return golden


def record_corpus():
    w = Corpus()
    w.setup(seed=0)
    w.run(time.monotonic)
    if w.code != 0:
        raise SystemExit("corpus run failed with exit code %r" % w.code)
    return {"report": w.stdout}


def record_query_mix():
    from sphq.derived import minimal_projective_resolution
    from sphq.spherelike import classify_spherelike
    w = QueryMix()
    w.load_fixtures()
    proper = []
    for f in FIXTURES:
        for desc, M in sorted(w.intervals[f].items()):
            rep = classify_spherelike(minimal_projective_resolution(M), desc)
            if rep.verdict == "properly_d_spherelike" and rep.d != 0:
                proper.append([f, desc])
    w.precompute_q(proper)
    ops = [(kind, f) + args for f in FIXTURES
           for kind, argss in sorted(w.universe(f).items()) for args in argss]
    golden = {"_properly_spherelike": proper}
    golden.update(record_ops(w, ops))
    return golden


def record_derived_ops():
    from sphq.derived import minimal_projective_resolution
    w = DerivedOps()
    w.load_fixtures()
    eligible = {}
    for f in FIXTURES:
        eligible[f] = [
            d for d in standard_descs(w.algs[f])
            if minimal_projective_resolution(w.standard(f, d)).total_rank()
            <= DERIVED_INPUT_CAP]
    golden = {"_eligible": eligible}
    ops = [(kind, f, d) for f in FIXTURES for kind in DerivedOps.KINDS
           for d in eligible[f]]
    golden.update(record_ops(w, ops))
    return golden


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(RECORDERS), action="append",
                   help="default: all three")
    args = p.parse_args(argv)
    worker.import_sphq()
    os.makedirs(GOLDEN, exist_ok=True)
    for name in args.workload or sorted(RECORDERS):
        data = RECORDERS[name]()
        with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


RECORDERS = {"corpus": record_corpus, "query_mix": record_query_mix,
             "derived_ops": record_derived_ops}

if __name__ == "__main__":
    sys.exit(main())
