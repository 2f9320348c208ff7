"""Outside-in tracer: wraps the public functions of the ``sphq`` modules.

``sphq`` modules import each other's functions by name (``from .linalg
import rref``), so a function is reachable through many module
attributes.  ``Tracer.install`` rebinds every ``sphq.*`` module attribute
that *is* a wrapped function, patches methods on their class, and
``Tracer.uninstall`` puts every original back.

A boundary is either spanned (one span per call: name, start, end,
parent) or only counted.  Spans stay in memory; ``layer_stats`` turns them
into per-layer totals after the run.  Hot, tiny functions such as
``BoundQuiverAlgebra.multiply`` are counted, not spanned, because a span
costs more than the call.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict, namedtuple


def _rref_stats(args, kwargs, result):
    cells = args[0].rows * args[0].cols
    return {"cells": cells, "max_cells": cells}


def _delta_stats(args, kwargs, result):
    return {"cells": result.rows * result.cols}


def _summand_stats(args, kwargs, result):
    return {"out_summands": result.total_rank()}


def _iso_stats(args, kwargs, result):
    return {"not_witnessed": int(result == "not_witnessed")}


def _add_stats(counter, stats):
    for key, value in stats.items():
        if key.startswith("max_"):
            counter[key] = max(counter[key], value)
        else:
            counter[key] += value


class Boundary(namedtuple("Boundary", "module qualname layer spanned stats "
                                     "count_key rejects")):
    """A function of ``sphq.<module>`` to wrap.

    Spanned boundaries get a span per call and, optionally, a ``stats``
    hook ``(args, kwargs, result) -> {stat: value}``.  Counted ones only
    add 1 to ``count_key``, and to ``rejected`` when they raise the
    ``sphq.errors`` exception named ``rejects``.
    """


def span(module, qualname, layer, stats=None):
    return Boundary(module, qualname, layer, True, stats, "calls", None)


def count(module, qualname, layer, key="calls", rejects=None):
    return Boundary(module, qualname, layer, False, None, key, rejects)


BOUNDARIES = [
    span("linalg", "rref", "linalg.rref", _rref_stats),
    count("linalg", "solve", "linalg.solve"),
    count("linalg", "kernel_basis", "linalg.kernel_basis"),
    count("linalg", "rank", "linalg.rank"),
    span("algebra", "BoundQuiverAlgebra.__init__", "algebra.build"),
    count("algebra", "BoundQuiverAlgebra.opposite", "algebra.opposite"),
    count("algebra", "BoundQuiverAlgebra.multiply", "algebra.multiply"),
    span("reps", "top_and_radical", "reps.top_and_radical"),
    span("reps", "kernel_cokernel", "reps.kernel_cokernel"),
    span("reps", "hom_basis", "reps.hom_basis"),
    span("derived", "minimal_projective_resolution",
         "derived.minimal_projective_resolution", _summand_stats),
    span("derived", "hom_profile", "derived.hom_profile"),
    span("derived", "HomComplexData.delta", "derived.HomComplexData.delta",
         _delta_stats),
    span("derived", "perfectify", "derived.perfectify", _summand_stats),
    span("derived", "LabeledComplex.__init__", "derived.LabeledComplex.init"),
    span("derived", "LabeledComplex.to_rep", "derived.LabeledComplex.to_rep"),
    count("derived", "cone", "derived.cone"),
    count("derived", "ChainMap._validate", "derived.ChainMap", "checked",
          "NotChainMap"),
    span("derived", "tau", "derived.tau"),
    span("derived", "tau_inverse", "derived.tau_inverse"),
    span("derived", "injective_model", "derived.injective_model"),
    span("derived", "iso_up_to_shift", "derived.iso_up_to_shift", _iso_stats),
    span("spherelike", "classify_spherelike", "spherelike.classify_spherelike"),
    span("poset", "build_poset", "poset.build_poset"),
    span("poset", "verify_edges", "poset.verify_edges"),
    span("ktheory", "euler_matrix", "ktheory.euler_matrix"),
    span("constructions", "induce", "constructions.induce"),
    span("corpus", "load_fixture", "corpus.load_fixture"),
]


def _elapsed(start, end):
    return end - start


class Tracer:
    """Records spans and counters at the ``BOUNDARIES`` of ``sphq``."""

    def __init__(self):
        self.names = []                 # span name table
        self.spans = []                 # [name_id, start, end, parent_index]
        self.counters = defaultdict(Counter)
        self._stack = []
        self._patches = []              # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------

    def _spanned(self, fn, layer, stats):
        name_id = len(self.names)
        self.names.append(layer)
        spans, stack, clock = self.spans, self._stack, time.monotonic
        counter = self.counters[layer]

        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if stats is not None:
                _add_stats(counter, stats(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, layer, key, rejects):
        counter = self.counters[layer]
        counter[key] += 0
        if rejects:
            counter["rejected"] += 0

        def wrapper(*args, **kwargs):
            counter[key] += 1
            try:
                return fn(*args, **kwargs)
            except rejects:
                counter["rejected"] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every boundary; rebinds all ``sphq.*`` aliases of each."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "sphq" or name.startswith("sphq.")) and m]
        errors = importlib.import_module("sphq.errors")
        for b in BOUNDARIES:
            module = importlib.import_module("sphq." + b.module)
            if "." in b.qualname:
                cls_name, attr = b.qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(original, b, errors))
                continue
            original = getattr(module, b.qualname)
            wrapped = self._wrap(original, b, errors)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)

    def _wrap(self, fn, b, errors):
        if b.spanned:
            return self._spanned(fn, b.layer, b.stats)
        rejects = getattr(errors, b.rejects) if b.rejects else ()
        return self._counted(fn, b.layer, b.count_key, rejects)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self):
        """[(owner, attribute, original)] currently rebound."""
        return list(self._patches)

    # -- results --------------------------------------------------------

    def self_times(self, duration=_elapsed):
        """Per-span self time: duration minus the direct children's.

        ``duration(start, end)`` measures a span; it must be additive
        over adjacent intervals (the default is ``end - start``).
        """
        total = [duration(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += total[i]
        return total, [t - c for t, c in zip(total, child)]

    def layer_stats(self, duration=_elapsed):
        """{layer: {stat: value}} with calls, self_s, incl_s and counters.

        ``incl_s`` counts only outermost spans of a layer, so a layer
        that calls itself is not counted twice.
        """
        out = {layer: dict(c) for layer, c in self.counters.items()}
        total, selfs = self.self_times(duration)
        for layer in self.names:
            out.setdefault(layer, {}).update(calls=0, self_s=0.0, incl_s=0.0)
        for i, (name_id, _, _, parent) in enumerate(self.spans):
            stats = out[self.names[name_id]]
            stats["calls"] += 1
            stats["self_s"] += selfs[i]
            if not self._has_ancestor(parent, name_id):
                stats["incl_s"] += total[i]
        return out

    def _has_ancestor(self, parent, name_id):
        spans = self.spans
        while parent >= 0:
            if spans[parent][0] == name_id:
                return True
            parent = spans[parent][3]
        return False
