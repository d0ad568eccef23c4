"""Span and count recorder for the traced run.

Hooks wrap lietrace functions at the module attributes where their callers
look them up (`lietrace.lefschetz.cohomology`, `lietrace.cecomplex.rank`,
`lietrace.ratlin.rref`, ...).  A function reached through several sites gets
one wrapper, and its layer is named after the module that defines it, so
`ratlin.rref` is one layer whichever caller reached it.  A site that no
longer exists is reported by name in `missing`; it is never dropped silently.

Timed rounds install only the span wrappers.  Work that costs more than the
calls it observes (counting `as_fraction`, scanning rref outputs for entry
sizes) runs in a separate counting round whose times are not used, so it
never lands in a layer's self time.

Spans (name, start, end, parent, report id) are kept in memory in flat
arrays and written out by `write_spans` at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# (module, attribute) sites that get a timing span.
SPAN_SITES = [
    ("lefschetz", "twisted_lefschetz"), ("cli", "twisted_lefschetz"),
    ("lefschetz", "validate"), ("nilshadow", "validate"), ("cli", "validate"),
    ("lefschetz", "check_morphism"), ("cli", "check_morphism"),
    ("lefschetz", "validate_rep"), ("cli", "validate_rep"),
    ("lefschetz", "validate_intertwiner"), ("cli", "validate_intertwiner"),
    ("lefschetz", "build_complex"), ("cli", "build_complex"),
    ("lefschetz", "induced_chain_map"), ("cli", "induced_chain_map"),
    ("lefschetz", "cohomology"), ("cli", "cohomology"),
    ("lefschetz", "induced_cohomology_map"), ("cli", "induced_cohomology_map"),
    ("lefschetz", "linearization"),
    ("lefschetz", "determinant"), ("ratlin", "determinant"),
    ("nilshadow", "determinant"), ("torus_oracle", "determinant"),
    ("cecomplex", "rank"),
    ("ratlin", "rref"), ("liealg", "rref"),
    ("nilshadow", "jordan_chevalley"),
    ("nilshadow", "build_shadow"), ("cli", "build_shadow"),
    ("nilshadow", "induced_shadow_map"), ("cli", "induced_shadow_map"),
    ("torus_oracle", "count_fixed_points"), ("cli", "count_fixed_points"),
    ("torus_oracle", "cross_check_with_ce"),
    ("cli", "main"),
    ("cli", "task_from_doc"),
]

# (module, attribute) sites wrapped only in the counting round.  as_fraction
# runs once per matrix entry, where even a bare counter would add a large
# share to its callers' self time; rref's outputs are scanned entry by entry
# for ratlin.max_entry_bits.
COUNT_SITES = [("ratlin", "as_fraction"), ("liealg", "as_fraction")]
SCAN_SITES = [("ratlin", "rref"), ("liealg", "rref")]

# The lefschetz pipeline stages; `summarize` charges self time to the nearest
# enclosing one.
STAGES = ("liealg.validate", "liealg.check_morphism", "repn.validate_rep",
          "repn.validate_intertwiner", "cecomplex.build_complex",
          "cecomplex.induced_chain_map", "cecomplex.cohomology",
          "cecomplex.induced_cohomology_map", "lefschetz.linearization")

# Stages whose rref calls make up the waste ratio ratlin.rref.calls_per_class.
COHOMOLOGY_STAGES = ("cecomplex.cohomology", "cecomplex.induced_cohomology_map")


def layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix('lietrace.')}.{fn.__name__}"


def _entry_bits(reduced) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in reduced.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_report = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.report = -1
        self.phase = "main"
        self.counts = Counter()          # (phase, layer, what) -> count
        self.max_entry_bits = 0
        self._tallies = {}               # layer -> [calls], for COUNT_SITES
        self._tally_marks = {}
        self.missing = []
        self._installed = []             # (module, attribute, original)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- hooks --------------------------------------------------------------

    def install(self, modules: dict, counting: bool = False) -> None:
        """Wrap the span sites, or with `counting` the count and scan sites;
        `modules` maps short names to lietrace modules."""
        wrappers = {}
        if counting:
            groups = ((COUNT_SITES, self._count_wrapper),
                      (SCAN_SITES, self._scan_wrapper))
        else:
            groups = ((SPAN_SITES, self._span_wrapper),)
        for sites, make in groups:
            for mod_name, attr in sites:
                module = modules.get(mod_name)
                original = getattr(module, attr, None)
                if original is None or not callable(original):
                    self.missing.append(f"lietrace.{mod_name}.{attr}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = make(original)
                self._installed.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        self.set_phase(self.phase)
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _span_wrapper(self, fn):
        layer = layer_name(fn)
        lid = self.name_id(layer)
        stack = self.stack
        names, parents, reports = self.span_name, self.span_parent, self.span_report
        starts, ends = self.span_start, self.span_end
        inspect = self._inspectors().get(layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(lid)
            parents.append(stack[-1] if stack else -1)
            reports.append(self.report)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if inspect is not None:
                inspect(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn):
        cell = self._tallies.setdefault(layer_name(fn), [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _scan_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.max_entry_bits = max(self.max_entry_bits, _entry_bits(result[0]))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def set_phase(self, phase: str) -> None:
        """Close the current phase's tallies and start counting `phase`."""
        for layer, cell in self._tallies.items():
            mark = self._tally_marks.get(layer, 0)
            self.counts[(self.phase, layer, "calls")] += cell[0] - mark
            self._tally_marks[layer] = cell[0]
        self.phase = phase

    def _inspectors(self):
        """Per-layer checks of a call's arguments and result, run as its span
        closes.  Each is a few dictionary updates, since its cost lands in the
        caller's self time."""
        counts = self.counts

        def rref(args, result):
            m = args[0]
            counts[(self.phase, "ratlin.rref", "cells")] += m.rows * m.cols

        def cohomology(args, result):
            counts[(self.phase, "cecomplex.cohomology", "classes")] += sum(
                d.betti for d in result)

        def fixed_points(args, result):
            counts[(self.phase, "torus_oracle.count_fixed_points",
                    "points")] += result.count

        return {"ratlin.rref": rref, "cecomplex.cohomology": cohomology,
                "torus_oracle.count_fixed_points": fixed_points}

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the duration of its direct children."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def summarize(self, report_filter):
        """Totals over spans whose report id passes `report_filter`.

        Returns {layer: {"calls", "s", "self_s"}}, the number of rref calls
        under the cohomology stages, and self time by (layer, stage), where
        stage is the nearest enclosing lefschetz pipeline stage.
        """
        dur, own = self.self_times()
        stage_ids = {self._name_ids[s] for s in STAGES if s in self._name_ids}
        under_ids = {self._name_ids[s] for s in COHOMOLOGY_STAGES
                     if s in self._name_ids}
        rref_id = self._name_ids.get("ratlin.rref", -2)
        n = len(self.span_name)
        stage = [-1] * n
        under = [False] * n
        layers = {}
        by_stage = Counter()
        rref_under = 0
        for i in range(n):
            p = self.span_parent[i]
            lid = self.span_name[i]
            stage[i] = lid if lid in stage_ids else (stage[p] if p >= 0 else -1)
            under[i] = (lid in under_ids) or (p >= 0 and under[p])
            if not report_filter(self.span_report[i]):
                continue
            name = self.names[lid]
            row = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += own[i]
            by_stage[(name, self.names[stage[i]] if stage[i] >= 0 else "-")] += own[i]
            if lid == rref_id and under[i]:
                rref_under += 1
        return layers, rref_under, by_stage

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, report.
        Times are seconds since the first span started."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\treport\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t"
                         f"{self.span_end[i] - t0:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_report[i]}\n")
