"""Per-layer tracing of vhcomplex from outside the library.

The tracer wraps public functions of each module and installs the
wrapper at every call site: modules reach each other through
from-imports (search holds its own reference to iter_covers, covers to
hyperplanes, cli to inter_osculates, ...), so every module-global in the
package that *is* the wrapped function is rebound, not only the
defining module's attribute.  Generators are timed per resume, so the
time a consumer spends between items is not charged to them.

Spans nest on a stack.  When a span closes, its self time (its duration
minus the durations of the spans it directly contains) is added to its
layer's total.  Only these totals and counts are kept, in memory, and
the benchmark writes them out when it ends: word_image alone closes
about a million spans per pass, too many to keep one by one.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack = []            # open spans: [layer, start, child seconds]
        self.self_s = Counter()    # layer -> seconds outside child spans
        self.counts = Counter()    # metric name -> count
        self.open = Counter()      # layer -> spans currently open
        self._bindings = []        # (module, attribute, original)

    def enter(self, layer: str):
        self.open[layer] += 1
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self):
        layer, start, child = self.stack.pop()
        span = self.clock() - start
        self.self_s[layer] += span - child
        if self.stack:
            self.stack[-1][2] += span
        self.open[layer] -= 1

    def take(self):
        """Return (self times, counts) gathered so far and start afresh."""
        out = (dict(self.self_s), dict(self.counts))
        self.self_s.clear()
        self.counts.clear()
        return out

    # -- wrappers ---------------------------------------------------------

    def calls(self, layer: str, fn, after: Optional[Callable] = None):
        """Wrap a function; after(counts, args, result) may add counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper

    def resumes(self, layer: str, gen, on_yield: Optional[Callable] = None):
        """Re-yield gen's items, timing each resume as a span."""
        try:
            while True:
                self.enter(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[layer + ".yields"] += 1
                if on_yield is not None:
                    on_yield()
                yield item
        finally:
            gen.close()

    def generator(self, layer: str, fn, on_yield: Optional[Callable] = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.resumes(layer, fn(*args, **kwargs), on_yield)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package: str, replacements: dict):
        """Rebind every module-global of the package's modules that is a
        key of `replacements` (by identity) to its value."""
        by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# the layers of vhcomplex


def _count_if(key: str, test: Callable):
    def after(counts, args, result):
        if test(args, result):
            counts[key] += 1
    return after


def _add_file_size(key: str):
    def after(counts, args, result):
        counts[key] += os.path.getsize(args[0])
    return after


def _cells(counts, args, ts):
    z = ts.complex
    counts["covers.total_space.cells"] += (z.num_vertices + z.num_edges
                                           + z.num_squares)


def _verdict(counts, args, outcome):
    counts["search.verdicts." + outcome.status.lower()] += 1


def _iter_homs(tracer: Tracer, fn, node_budget_type):
    """iter_homs counts its nodes on the budget it is given; give it an
    uncapped one when the caller passes none."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def iter_homs(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        budget = call.arguments.get("budget")
        if budget is None:
            budget = call.arguments["budget"] = node_budget_type()
        start = budget.nodes
        try:
            yield from tracer.resumes("permutations.iter_homs",
                                      fn(*call.args, **call.kwargs))
        finally:
            tracer.counts["permutations.iter_homs.nodes"] += \
                budget.nodes - start
    return iter_homs


def layer_wrappers(tracer: Tracer, lib) -> dict:
    """Original function -> traced wrapper for every boundary measured.

    `lib` maps a vhcomplex module's short name to the module.
    """
    perm, covers, hyps = lib["permutations"], lib["covers"], lib["hyperplanes"]
    cx, search, formats = lib["complexes"], lib["search"], lib["formats"]

    def covers_checked():
        if tracer.open["search"]:
            tracer.counts["search.covers_checked"] += 1

    wrappers = {
        perm.iter_homs: _iter_homs(tracer, perm.iter_homs, perm.NodeBudget),
        perm.word_image: tracer.calls("permutations.word_image",
                                      perm.word_image),
        perm.canonical_under_relabeling: tracer.calls(
            "permutations.canonical", perm.canonical_under_relabeling,
            _count_if("permutations.canonical.kept",
                      lambda args, result: result == tuple(args[0]))),
        perm.is_transitive: tracer.calls(
            "permutations.is_transitive", perm.is_transitive,
            _count_if("permutations.is_transitive.kept",
                      lambda args, result: result)),
        covers.iter_covers: tracer.generator("covers.iter_covers",
                                             covers.iter_covers,
                                             covers_checked),
        covers.total_space: tracer.calls("covers.total_space",
                                         covers.total_space, _cells),
        covers.validate_cover: tracer.calls("covers.validate_cover",
                                            covers.validate_cover),
        covers.preimage_hyperplane_components: tracer.calls(
            "covers.preimage", covers.preimage_hyperplane_components),
        covers.regular_closure: tracer.calls("covers.regular_closure",
                                             covers.regular_closure),
        hyps.hyperplanes: tracer.calls("hyperplanes.extract",
                                       hyps.hyperplanes),
        hyps.is_clean: tracer.calls(
            "hyperplanes.is_clean", hyps.is_clean,
            _count_if("hyperplanes.is_clean.clean",
                      lambda args, report: report.clean)),
        hyps.inter_osculates: tracer.calls("hyperplanes.inter_osculates",
                                           hyps.inter_osculates),
        cx.structural_violations: tracer.calls(
            "complexes.structural_violations", cx.structural_violations),
        cx.validate: tracer.calls("complexes.validate", cx.validate),
        lib["presentations"].pi1_presentation: tracer.calls(
            "presentations.pi1", lib["presentations"].pi1_presentation),
        lib["constructions"].pair_enumerator: tracer.generator(
            "constructions.pair_enumerator",
            lib["constructions"].pair_enumerator),
        formats.read_doc: tracer.calls(
            "formats.read", formats.read_doc,
            _add_file_size("formats.read.bytes")),
        formats.write_doc: tracer.calls(
            "formats.write", formats.write_doc,
            _add_file_size("formats.write.bytes")),
        lib["cli"].console_main: tracer.calls("cli.console_main",
                                              lib["cli"].console_main),
    }
    for fn in (search.semi_decide_virtually_clean,
               search.probe_profinite_triviality,
               search.element_survives, search.loop_survives):
        wrappers[fn] = tracer.calls("search", fn, _verdict)
    return wrappers
