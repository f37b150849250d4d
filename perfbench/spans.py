"""Spans and counts for the traced run, recorded from outside geoburn.

Each wrapped function is replaced at the name its caller looks it up by
(``geoburn.burn2d.disk_cover_approx`` for the pipelines, and
``geoburn.cover.disk_cover_greedy`` for ``disk_cover_approx`` itself),
so the program runs unchanged apart from the wrappers.  A span records
its name, start, end, parent span and operation; spans stay in memory
and are written out when the run ends.  A layer's time is the self time
of its spans: their duration minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager


def _count_candidates(counts, args, kwargs, out):
    counts["cover.candidates"] += len(out)


def _count_local_search(counts, args, kwargs, out):
    chosen = args[2] if len(args) > 2 else kwargs["chosen"]
    counts["cover.local_search.calls"] += 1
    counts["cover.local_search.removed"] += len(chosen) - len(out)


def _count_edges(counts, args, kwargs, out):
    counts["cover.disk_graph.edges"] += sum(len(nb) for nb in out) // 2


# (module, attribute, span name, counter): every name a caller inside
# geoburn looks a covering or oracle primitive up by
WRAPS = (
    ("geoburn.burn2d", "candidate_centers", "cover.candidates", _count_candidates),
    ("geoburn.cover", "candidate_centers", "cover.candidates", _count_candidates),
    ("geoburn.oracle", "candidate_centers", "cover.candidates", _count_candidates),
    ("geoburn.burn2d", "coverage_mask", "cover.masks", None),
    ("geoburn.cover", "coverage_mask", "cover.masks", None),
    ("geoburn.cover", "coverage_masks", "cover.masks", None),
    ("geoburn.oracle", "coverage_mask", "cover.masks", None),
    ("geoburn.oracle", "coverage_masks", "cover.masks", None),
    ("geoburn.burn2d", "disk_cover_approx", "cover.greedy", None),
    ("geoburn.cover", "disk_cover_greedy", "cover.greedy", None),
    ("geoburn.cover", "disk_cover_local_search", "cover.local_search",
     _count_local_search),
    ("geoburn.burn2d", "disk_graph", "cover.disk_graph", _count_edges),
    ("geoburn.burn2d", "dominating_set_greedy", "cover.dominating", None),
    ("geoburn.burn2d", "max_coverage_groups", "cover.max_coverage", None),
    ("geoburn.burn2d", "exact_disk_cover", "oracle.disk_cover", None),
    ("geoburn.burn2d", "exact_dominating_set", "oracle.dominating", None),
    ("geoburn.ptas1d", "cover_line", "ptas1d.cover_line", None),
)

# per-layer metrics: self time of these spans, in seconds per round
TIME_METRICS = (
    "core.validate", "ioformats.parse", "cover.candidates", "cover.masks",
    "cover.greedy", "cover.local_search", "cover.disk_graph",
    "cover.dominating", "cover.max_coverage", "burn2d.self", "ptas1d.cover_line",
    "oracle.burning", "oracle.disk_cover", "oracle.dominating",
    "oracle.max_burn", "hardness.build", "hardness.bruteforce",
)
# per-layer counts per round
COUNT_METRICS = (
    "core.burnt_ignitions", "cover.candidates", "cover.local_search.calls",
    "cover.local_search.removed", "cover.disk_graph.edges", "burn2d.guesses",
    "burn2d.rejected", "ptas1d.guesses",
)


class Tracer:
    """Spans and counts of the traced rounds, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = {name: 0 for name in COUNT_METRICS}
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPS for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in WRAPS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[idx]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)
