"""Spans around the calls one pbzlat module makes into another.

The tracer replaces module-level names that callers look up at call
time (``pbzlat.enumeration.canonical_form``, ``pbzlat.terms.holds``,
...) with timing wrappers, and puts the originals back on
``uninstall``.  Spans (name, layer, start, end, parent) stay in memory
and are written out once, when the run ends.  A span's self time is
its duration minus the time its direct children cover.

Generator functions get one span per resumption, so the work a
consumer pulls out of ``enumerate_pbz`` is charged to enumeration and
not to the caller that iterates.
"""

import functools
import inspect
import json
import statistics
import time

# (module, attribute, span name).  The layer is the text before the
# first dot of the span name.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("enumeration", "enumerate_pbz", "enumeration.enumerate_pbz"),
    ("enumeration", "enumerate_all", "enumeration.enumerate_all"),
    ("enumeration", "enumerate_lattices", "enumeration.enumerate_lattices"),
    ("enumeration", "search_counterexample", "enumeration.search"),
    ("enumeration", "verify_over_corpus", "enumeration.verify_over_corpus"),
    ("enumeration", "_atom_extensions", "enumeration.atom_extension"),
    ("enumeration", "order_reversing_involutions",
     "enumeration.involution_search"),
    ("enumeration", "bz_brouwer_maps", "enumeration.brouwer_search"),
    ("enumeration", "BoundedLattice", "core.order_validate"),
    ("enumeration", "canonical_form", "core.canonical_form"),
    ("enumeration", "is_isomorphic", "core.is_isomorphic"),
    ("axioms", "classify", "axioms.classify"),
    ("axioms", "sharp_sets", "axioms.sharp_sets"),
    ("terms", "holds", "terms.holds"),
    ("terms", "holds_quasi", "terms.holds_quasi"),
    ("terms", "parse_statement", "terms.parse_statement"),
    ("congruences", "all_congruences", "congruences.all_congruences"),
    ("congruences", "principal_congruence", "congruences.principal"),
    ("congruences", "is_subdirectly_irreducible", "congruences.si"),
    ("congruences", "is_directly_indecomposable",
     "congruences.indecomposable"),
    ("congruences", "agreement_below", "congruences.agreement_below"),
    ("congruences", "tilde_family_report", "congruences.tilde_family"),
    ("constructions", "is_horizontal_sum_of_blocks", "constructions.hsum"),
    ("constructions", "cones", "constructions.cones"),
    ("fileformat", "dumps", "fileformat.dumps"),
    ("fileformat", "dump", "fileformat.dump"),
)

LAYERS = ("core", "enumeration", "axioms", "terms", "congruences",
          "constructions", "fileformat", "cli")


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.lattice_forms = set()
        self.congruence_algebras = set()
        self.saved = []

    # -- installing -------------------------------------------------------

    def install(self):
        for module, attr, name in WRAPPED:
            mod = getattr(self.package, module)
            original = getattr(mod, attr)
            self.saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self):
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self._count(name, args, None)
                it = fn(*args, **kwargs)
                while True:
                    self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._count(name, args, result)
            return result
        return wrapper

    # -- counters -----------------------------------------------------------

    def _add(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def _count(self, name, args, result):
        self._add(name + ".calls")
        if name == "enumeration.atom_extension":
            self._add("enumeration.extension_candidates", len(result))
        elif name == "enumeration.involution_search":
            self._add("enumeration.involutions_found", len(result))
            self._add("enumeration.involution_hits", bool(result))
        elif name == "enumeration.brouwer_search":
            self._add("enumeration.brouwer_maps_found", len(result))
        elif name == "core.canonical_form":
            if type(args[0]).__name__ == "BoundedLattice":
                self.lattice_forms.add(result)
        elif name == "terms.holds":
            self._add("terms.holds_full_scans", bool(result[0]))
        elif name == "congruences.all_congruences":
            A = args[0]
            self.congruence_algebras.add(
                (A.n, tuple(A.kleene), tuple(A.brouwer),
                 tuple(A.covers())))

    # -- report -------------------------------------------------------------

    def self_times(self):
        """Self time per span index."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self):
        """Per-layer figures: self time per span name and per layer,
        total (outermost-span) time per layer, and the counters."""
        own = self.self_times()
        by_name = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_total = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            by_name[name] = by_name.get(name, 0.0) + own[i]
            layer_self[layer] += own[i]
            p = parent
            while p >= 0 and not self.spans[p][0].startswith(layer + "."):
                p = self.spans[p][3]
            if p < 0:
                layer_total[layer] += end - start

        c = self.counts.get
        ext = c("enumeration.extension_candidates", 0)
        kept = len(self.lattice_forms)
        searched = c("enumeration.involution_search.calls", 0)
        out = {
            "core.order_validate_s": by_name.get("core.order_validate", 0.0),
            "core.order_validate_calls": c("core.order_validate.calls", 0),
            "core.canonical_form_s": by_name.get("core.canonical_form", 0.0),
            "core.canonical_form_calls": c("core.canonical_form.calls", 0),
            "enumeration.atom_extension_s":
                by_name.get("enumeration.atom_extension", 0.0),
            "enumeration.extension_candidates": ext,
            "enumeration.lattices_kept": kept,
            "enumeration.lattice_yield": kept / ext if ext else 0.0,
            "enumeration.involution_search_s":
                by_name.get("enumeration.involution_search", 0.0),
            "enumeration.involution_lattices": searched,
            "enumeration.involutions_found":
                c("enumeration.involutions_found", 0),
            "enumeration.involution_yield":
                c("enumeration.involution_hits", 0) / searched
                if searched else 0.0,
            "enumeration.brouwer_search_s":
                by_name.get("enumeration.brouwer_search", 0.0),
            "enumeration.brouwer_calls":
                c("enumeration.brouwer_search.calls", 0),
            "enumeration.brouwer_maps_found":
                c("enumeration.brouwer_maps_found", 0),
            "enumeration.corpus_requests":
                c("enumeration.enumerate_pbz.calls", 0),
            "enumeration.corpus_builds":
                c("enumeration.enumerate_lattices.calls", 0),
            "axioms.classify_s": by_name.get("axioms.classify", 0.0),
            "axioms.classify_calls": c("axioms.classify.calls", 0),
            "terms.holds_s": by_name.get("terms.holds", 0.0),
            "terms.holds_calls": c("terms.holds.calls", 0),
            "terms.holds_full_scans": c("terms.holds_full_scans", 0),
            "terms.holds_quasi_s": by_name.get("terms.holds_quasi", 0.0),
            "terms.holds_quasi_calls": c("terms.holds_quasi.calls", 0),
            "congruences.all_congruences_s":
                by_name.get("congruences.all_congruences", 0.0),
            "congruences.all_congruences_calls":
                c("congruences.all_congruences.calls", 0),
            "congruences.algebras_distinct": len(self.congruence_algebras),
            "congruences.principal_calls": c("congruences.principal.calls", 0),
            "constructions.hsum_s": by_name.get("constructions.hsum", 0.0),
            "constructions.cones_s": by_name.get("constructions.cones", 0.0),
            "fileformat.dumps_s": by_name.get("fileformat.dumps", 0.0)
                + by_name.get("fileformat.dump", 0.0),
            "fileformat.dumps_calls": c("fileformat.dumps.calls", 0),
        }
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
            out[f"layer.{layer}.total_s"] = layer_total[layer]
        out["trace.spans"] = len(self.spans)
        return out

    @staticmethod
    def span_cost(calls=20000, repeats=7):
        """Extra seconds one span adds: a wrapped no-op call against a bare
        one, median of ``repeats`` loops, measured on a throwaway tracer.
        The counter work a few span names do on top is not included."""
        def noop(x):
            return x

        probe = Tracer(None)
        wrapped = probe._wrap(noop, "calibration")
        costs = []
        for _ in range(repeats):
            probe.spans.clear()
            t = time.perf_counter()
            for i in range(calls):
                noop(i)
            bare = time.perf_counter() - t
            t = time.perf_counter()
            for i in range(calls):
                wrapped(i)
            costs.append((time.perf_counter() - t - bare) / calls)
        return statistics.median(costs)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
