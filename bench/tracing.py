"""Per-layer spans and counts, recorded from outside the library.

The tracer replaces public starpinch functions by wrappers at the name
each caller looks up (``starpinch.pinch.geodesic_distance`` is the name
``run_pinch``'s helpers call, ``starpinch.identities.build_rule`` the one
the residual checks call), so nothing under ``src/`` changes.  A wrapper
opens a span on a stack; when it closes, its duration is added to the
span name's inclusive time (outermost spans only) and, less the time of
its direct child spans, to the name's self time.  Counters are updated at
the same boundaries.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.  One span name may sit at several
# lookup sites: build_rule is imported by name into pinch, identities and cli.
SITES = (
    ("starpinch.surface", "evaluate_nodes", "surface.evaluate_nodes"),
    ("starpinch.surface", "RadialSurface.fields", "surface.fields"),
    ("starpinch.pinch", "build_rule", "quadrature.build_rule"),
    ("starpinch.identities", "build_rule", "quadrature.build_rule"),
    ("starpinch.cli", "build_rule", "quadrature.build_rule"),
    ("starpinch.pinch", "integrate_batch", "quadrature.integrate_batch"),
    ("starpinch.identities", "integrate_batch", "quadrature.integrate_batch"),
    ("starpinch.cli", "integrate_batch", "quadrature.integrate_batch"),
    ("starpinch.symfun", "calibrate", "symfun.calibrate"),
    ("starpinch.pinch", "fit_geodesic_sphere", "pinch.fit"),
    ("starpinch.pinch", "geodesic_distance", "spaceform.geodesic_distance"),
    ("starpinch.pinch", "distance_to_geodesic_sphere", "pinch.distance_to_geodesic_sphere"),
    ("starpinch.pinch", "sample_geodesic_sphere", "pinch.sample_geodesic_sphere"),
    ("starpinch", "run_pinch", "pinch.run_pinch"),
    ("starpinch.pinch", "run_pinch", "pinch.run_pinch"),
    ("starpinch", "scaling_study", "pinch.scaling_study"),
    ("starpinch.pinch", "build_chain", "constants.build_chain"),
    ("starpinch.identities", "hsiung_minkowski_residual", "identities.residual"),
    ("starpinch.identities", "cauchy_schwarz_chain_check", "identities.residual"),
    ("starpinch.identities", "michael_simon_ratio", "identities.residual"),
    ("starpinch.identities", "gauss_algebraic_check", "identities.residual"),
    ("starpinch.cli", "main", "cli.main"),
)

# the Hausdorff pass of run_pinch: this work outside the fit
HAUSDORFF_SPANS = ("spaceform.geodesic_distance", "pinch.distance_to_geodesic_sphere",
                   "pinch.sample_geodesic_sphere")

# spans kept one by one in the trace file; the rest are only summed
LISTED_SPANS = ("pinch.scaling_study", "pinch.run_pinch", "pinch.fit", "constants.build_chain",
                "surface.evaluate_nodes", "identities.residual", "cli.main",
                "symfun.calibrate")


class Tracer:
    def __init__(self):
        self.inclusive = Counter()  # span name -> seconds, outermost spans only
        self.self_time = Counter()  # span name -> seconds less direct children
        self.counts = Counter()
        self.spans = []             # (name, start, end, parent) of LISTED_SPANS
        self._stack = []            # open spans: [name, start, child seconds]
        self._t0 = perf_counter()

    @contextmanager
    def installed(self):
        """Swap the wrappers in at every site; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span in SITES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(span, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def snapshot(self):
        return Counter(self.inclusive), Counter(self.self_time), Counter(self.counts)

    def since(self, snap) -> dict:
        """Per-layer metrics of the work done since ``snap``."""
        inc = _minus(self.inclusive, snap[0])
        own = _minus(self.self_time, snap[1])
        cnt = _minus(self.counts, snap[2])
        calls = cnt["surface.fields.calls"]
        return {
            "surface.evaluate_nodes_s": inc["surface.evaluate_nodes"],
            "surface.nodes_evaluated": cnt["surface.nodes_evaluated"],
            "surface.fields_calls": calls,
            "surface.fields_hit_ratio": cnt["surface.fields.hits"] / calls if calls else 0.0,
            "quadrature.build_rule_s": inc["quadrature.build_rule"],
            "quadrature.integrate_batch_s": inc["quadrature.integrate_batch"],
            "quadrature.integrate_batch_calls": cnt["quadrature.integrate_batch.calls"],
            "symfun.calibrate_s": inc["symfun.calibrate"],
            "pinch.fit_s": inc["pinch.fit"],
            "pinch.fit_distance_pairs": cnt["pinch.fit_distance_pairs"],
            "pinch.hausdorff_s": inc["pinch.hausdorff"],
            "pinch.hausdorff_distance_pairs": cnt["pinch.hausdorff_distance_pairs"],
            "spaceform.geodesic_distance_s": inc["spaceform.geodesic_distance"],
            "spaceform.distance_pairs": cnt["spaceform.distance_pairs"],
            "pinch.run_pinch_self_s": own["pinch.run_pinch"],
            "constants.build_chain_s": inc["constants.build_chain"],
            "identities.residuals_self_s": own["identities.residual"],
            "cli.main_self_s": own["cli.main"],
        }

    def span_records(self) -> list:
        return [{"name": name, "start_s": start - self._t0, "end_s": end - self._t0,
                 "parent": parent} for name, start, end, parent in self.spans]

    # -- wrappers ----------------------------------------------------------

    def _open(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, span, fn):
        if span == "surface.fields":
            def fields(surface, rule):
                before = self.counts["surface.evaluate_nodes.calls"]
                batch = self._call(span, fn, (surface, rule), {})
                self.counts["surface.fields.hits"] += (
                    self.counts["surface.evaluate_nodes.calls"] == before)
                return batch
            return fields

        def wrapper(*args, **kwargs):
            return self._call(span, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _call(self, name, fn, args, kwargs):
        in_run = self._open("pinch.run_pinch")
        in_fit = self._open("pinch.fit")
        hausdorff = (name in HAUSDORFF_SPANS and in_run and not in_fit
                     and not any(frame[0] in HAUSDORFF_SPANS for frame in self._stack))
        outermost = not self._open(name)
        if name == "spaceform.geodesic_distance":
            pairs = _pairs(args[0], args[1])
            self.counts["spaceform.distance_pairs"] += pairs
            if in_fit:
                self.counts["pinch.fit_distance_pairs"] += pairs
            elif in_run:
                self.counts["pinch.hausdorff_distance_pairs"] += pairs
        elif name == "surface.evaluate_nodes":
            self.counts["surface.nodes_evaluated"] += len(args[1])

        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.counts[name + ".calls"] += 1
            self.self_time[name] += duration - frame[2]
            if outermost:
                self.inclusive[name] += duration
            if hausdorff:
                self.inclusive["pinch.hausdorff"] += duration
            if self._stack:
                self._stack[-1][2] += duration
            if name in LISTED_SPANS:
                parent = self._stack[-1][0] if self._stack else None
                self.spans.append((name, frame[1], end, parent))


def _pairs(x, y) -> int:
    """Number of point pairs a broadcast geodesic_distance call measures."""
    return math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))


def _minus(now: Counter, then: Counter) -> Counter:
    return Counter({key: value - then[key] for key, value in now.items()})
