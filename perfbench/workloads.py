"""The three benchmark workloads: their inputs, ops and output checks.

Each workload runs a fixed op set in a seeded order, in a closed loop
(one op at a time, the next starting when the previous one returns),
and checks every output after the timed phase, against an independent
oracle where one exists and against the outputs recorded in ``golden/``
(by ``record.py``, on the commit that introduced the benchmark).  ``sphq`` functions are looked up when an op
runs, not at import, so the tracer's rebinding reaches these calls.

* ``corpus``: ``sphq corpus run`` in-process; the ops are the twelve
  acceptance criteria.  The seed is unused: the inputs are the corpus.
* ``query_mix``: the read path.  Hom profiles, classification, Serre
  duality and membership in a precomputed spherical subcategory over the
  sixteen shipped fixtures.  No ``perfectify`` and no algebra build in the
  timed phase.
* ``derived_ops``: the write path.  nu, tau and tau^-1 of standard modules,
  each building a new perfect complex.  Inputs are capped at five
  summands in their minimal resolution (see ``DERIVED_INPUT_CAP``).
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random

from oracle import Oracle, alternating_sum, cohomology

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

FIXTURES = ["auslander_x3", "canonical_222", "cb2", "cb3", "cb4", "cb5",
            "circular_7_5", "dda_1_2_0", "dda_1_3_0", "dda_2_3_0",
            "dda_2_3_1", "dda_2_4_1", "ncc", "poset_cycle",
            "preprojective_a3_cluster", "tensor_kronecker"]
STANDARD_KINDS = ("S", "P", "I")
_KIND_NAMES = {"S": "simple", "P": "projective", "I": "injective"}

# Inputs of derived_ops have at most this many summands in their minimal
# resolution.  Larger inputs hit the perfectify blow-up (no minimisation
# of perfect complexes yet): on tensor_kronecker, inputs with 9 or more
# summands take over 8 s per op.  Raise the cap once minimisation lands.
DERIVED_INPUT_CAP = 5
# query_mix: how often each standard module is a hom / serre source.
PAIRING_ROUNDS = 2
# derived_ops: modules per fixture and op kind; 16 x 3 x 3 = 144 ops, so
# the 90th percentile has 14 ops beyond it.
DERIVED_OPS_PER_KIND = 3


def profile_str(profile):
    return ",".join("%d:%d" % (i, d) for i, d in sorted(profile.items()))


def load_golden(name):
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        return json.load(fh)


class Failure(Exception):
    """An op output that fails its check."""


# ----------------------------------------------------------------------
# corpus


class Corpus:
    name = "corpus"

    def setup(self, seed):
        from sphq import cli, corpus
        self.cli, self.corpus = cli, corpus

    def run(self, clock):
        """One ``sphq corpus run``; returns [(op, start, end, output)]."""
        original = self.corpus.run_criterion
        timed = []

        def run_criterion(number):
            start = clock()
            result = original(number)
            timed.append((("criterion", "%02d" % number), start, clock(),
                          result))
            return result

        out = io.StringIO()
        self.corpus.run_criterion = run_criterion
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(["corpus", "run"])
        finally:
            self.corpus.run_criterion = original
        self.stdout, self.code = out.getvalue(), code
        return timed

    def check_all(self, results):
        """[(op, error)] for every failed criterion."""
        report = load_golden("corpus")["report"]
        if self.code == 0 and self.stdout == report:
            return []
        expected = {r["criterion"]: r for r in json.loads(report)["results"]}
        failed = [(op_key(op), "criterion report differs from the recorded one")
                  for op, _, _, out in results
                  if not out["pass"] or out != expected[int(op[1])]]
        return failed or [(op_key(op), "corpus exit code %r or report differs"
                           % self.code) for op, _, _, _ in results]


# ----------------------------------------------------------------------
# shared helpers for the fixture workloads


class _FixtureWorkload:
    @functools.cached_property
    def oracles(self):
        """{fixture: Oracle}, built when first checked, after timing."""
        return {f: Oracle(alg) for f, alg in self.algs.items()}

    def load_fixtures(self):
        from sphq.corpus import load_fixture
        self.algs = {name: load_fixture(name) for name in FIXTURES}

    def standard(self, fixture, desc):
        from sphq.reps import standard_module
        kind, x = desc.split(":")
        return standard_module(self.algs[fixture], _KIND_NAMES[kind], x)

    def run(self, clock):
        """Runs the op list; returns [(op, start, end, output)]."""
        out = []
        for op in self.ops:
            start = clock()
            try:
                result = self.run_op(op)
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            out.append((op, start, clock(), result))
        return out

    def check_all(self, results):
        """[(op, error)] for every failed op."""
        failed = []
        for op, _, _, result in results:
            try:
                if isinstance(result, Exception):
                    raise Failure("raised %s: %s" % (type(result).__name__,
                                                     result))
                digest = self.check(op, result)
                want = self.golden.get(op_key(op))
                if want is None:
                    raise Failure("no recorded output for this op")
                if digest != want:
                    raise Failure("output %r differs from the recorded %r"
                                  % (digest, want))
            except Failure as exc:
                failed.append((op_key(op), str(exc)))
        return failed


def op_key(op):
    return " ".join(op)


def interleave(per_fixture, seed):
    """A seeded interleaving of per-fixture op lists, each kept in its own
    order.  The program's caches are per algebra, so every seed fills
    them at the same ops and per-op latencies do not depend on the seed's
    order."""
    slots = [f for f, ops in per_fixture.items() for _ in ops]
    random.Random(seed).shuffle(slots)
    pending = {f: iter(ops) for f, ops in per_fixture.items()}
    return [next(pending[f]) for f in slots]


def standard_descs(alg):
    return ["%s:%s" % (k, v) for k in STANDARD_KINDS for v in alg.quiver.vertices]


# ----------------------------------------------------------------------
# query_mix


class QueryMix(_FixtureWorkload):
    name = "query_mix"

    def setup(self, seed):
        self.golden = load_golden("query_mix")
        self.load_fixtures()
        self.precompute_q(self.golden["_properly_spherelike"])
        self.ops = self.make_ops(seed)

    def load_fixtures(self):
        from sphq.spherelike import interval_modules
        super().load_fixtures()
        self.intervals = {f: dict(interval_modules(self.algs[f]))
                          for f in FIXTURES}

    def precompute_q(self, proper):
        """Q_F of each properly spherelike (fixture, interval module)."""
        from sphq.derived import minimal_projective_resolution
        from sphq.spherelike import asphericality, classify_spherelike
        self.q = {}
        for fixture, desc in proper:
            F = minimal_projective_resolution(self.intervals[fixture][desc])
            self.q[(fixture, desc)] = asphericality(
                F, classify_spherelike(F, desc))

    def universe(self, fixture):
        """{kind: [argument tuples]}: every op this fixture can run."""
        std = standard_descs(self.algs[fixture])
        pairs = [(x, y) for x in std for y in std]
        out = {"hom": pairs, "serre": pairs,
               "classify": [(d,) for d in std + sorted(self.intervals[fixture])]}
        qs = self.q_descs(fixture)
        if qs:
            out["member"] = [(x, q) for x in std for q in qs]
        return out

    def q_descs(self, fixture):
        return sorted(d for f, d in self.q if f == fixture)

    def make_ops(self, seed):
        """The same op set for every seed, in a seeded order.

        Per fixture, every standard module is the source of
        ``PAIRING_ROUNDS`` ``hom`` and ``serre`` ops and the target of as
        many, in a pairing drawn once from the fixture's name; every
        candidate object is classified once; every standard module is
        tested against every Q_F.  A few pairs cost 100 to 300 times the
        2 ms median (Serre duality of injectives over tensor_kronecker),
        so seed-chosen pairs moved ``wall_s`` by up to 20 % between seeds.
        """
        per_fixture = {}
        for fixture in FIXTURES:
            std = standard_descs(self.algs[fixture])
            design = random.Random(fixture)
            ops = []
            for kind in ("hom", "serre"):
                for _ in range(PAIRING_ROUNDS):
                    targets = design.sample(std, len(std))
                    ops += [(kind, fixture, x, y) for x, y in zip(std, targets)]
            for kind, args in sorted(self.universe(fixture).items()):
                if kind in ("classify", "member"):
                    ops += [(kind, fixture) + a for a in args]
            design.shuffle(ops)
            per_fixture[fixture] = ops
        return interleave(per_fixture, seed)

    def run_op(self, op):
        from sphq.derived import hom_profile, minimal_projective_resolution, nakayama
        from sphq.spherelike import classify_spherelike
        kind, fixture = op[0], op[1]
        if kind == "classify":
            desc = op[2]
            M = self.intervals[fixture][desc] if desc.startswith("interval") \
                else self.standard(fixture, desc)
            return M, classify_spherelike(M, desc)
        X = self.standard(fixture, op[2])
        RX = minimal_projective_resolution(X)
        if kind == "member":
            return hom_profile(RX, self.q[(fixture, op[3])])
        Y = self.standard(fixture, op[3])
        lhs = hom_profile(RX, Y)
        if kind == "hom":
            return lhs
        rhs = hom_profile(minimal_projective_resolution(Y), nakayama(RX).to_rep())
        return lhs, rhs

    def check(self, op, result):
        """Independent check; returns the digest compared with golden."""
        kind, fixture = op[0], op[1]
        orc = self.oracles[fixture]
        if kind == "classify":
            M, report = result
            dims = orc.rep_dims(M)
            _expect_chi(report.profile, orc.chi(dims, dims))
            return json.dumps(report.to_json(), sort_keys=True)
        xdims = orc.standard_dims(*op[2].split(":"))
        if kind == "member":
            _expect_chi(result, orc.chi(xdims, orc.complex_dims(
                self.q[(fixture, op[3])])))
            return profile_str(result)
        ydims = orc.standard_dims(*op[3].split(":"))
        lhs = result if kind == "hom" else result[0]
        _expect_chi(lhs, orc.chi(xdims, ydims))
        if kind == "hom":
            return profile_str(lhs)
        rhs = result[1]
        if lhs != {-i: d for i, d in rhs.items()}:
            raise Failure("Serre duality fails: %s vs %s" % (
                profile_str(lhs), profile_str(rhs)))
        return profile_str(lhs)


def _expect_chi(profile, chi):
    if alternating_sum(profile) != chi:
        raise Failure("alternating sum of %s is not the Euler form %d"
                      % (profile_str(profile), chi))


# ----------------------------------------------------------------------
# derived_ops


class DerivedOps(_FixtureWorkload):
    name = "derived_ops"
    KINDS = ("nu", "tau", "tau_inverse")

    def setup(self, seed):
        self.golden = load_golden("derived_ops")
        self.load_fixtures()
        self.ops = self.make_ops(seed)

    def make_ops(self, seed):
        """The same op set for every seed, in a seeded order.

        Per fixture and op kind, ``DERIVED_OPS_PER_KIND`` eligible modules
        drawn once from the fixture's name.  Costs differ up to twofold
        between the modules of one fixture (tau^-1 on
        preprojective_a3_cluster takes 1.4 to 2.7 s), so seed-chosen
        modules spread ``wall_s`` by 13 to 18 % across seeds.
        """
        per_fixture = {}
        for fixture in FIXTURES:
            design = random.Random(fixture)
            ops = [(kind, fixture, desc) for kind in self.KINDS
                   for desc in design.sample(self.golden["_eligible"][fixture],
                                             DERIVED_OPS_PER_KIND)]
            design.shuffle(ops)
            per_fixture[fixture] = ops
        return interleave(per_fixture, seed)

    def run_op(self, op):
        from sphq.derived import (minimal_projective_resolution, nakayama,
                                  perfectify, tau, tau_inverse)
        kind, fixture, desc = op
        R = minimal_projective_resolution(self.standard(fixture, desc))
        if kind == "nu":
            return perfectify(nakayama(R).to_rep())
        if kind == "tau":
            return tau(R)
        return tau_inverse(R)

    def check(self, op, result):
        """K-class check, then a digest of the cohomology (an invariant of
        the quasi-isomorphism class, so a smaller model of the same
        object still matches)."""
        kind, fixture, desc = op
        orc = self.oracles[fixture]
        dims = orc.standard_dims(*desc.split(":"))
        if kind == "tau_inverse":
            want = [-c for c in orc.nu_inverse_dims(dims)]
        else:
            want = orc.nu_dims(dims)
            if kind == "tau":
                want = [-c for c in want]
        got = orc.labeled_dims(result)
        if got != want:
            raise Failure("K-class %s, expected %s" % (got, [str(c) for c in want]))
        text = json.dumps({str(n): h for n, h in
                           cohomology(result.to_rep()).items()}, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (Corpus, QueryMix, DerivedOps)}
