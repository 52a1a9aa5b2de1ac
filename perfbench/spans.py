"""In-memory spans recorded around calls into the package's public functions.

Nothing inside the package is changed. While `Tracer.installed()` is active,
the module attributes listed in TRACED are replaced by wrappers that open a
span around each call; callers that look the name up on its module at call
time (the benchmark itself, and warm_solve/run_pipeline for the functions
they call) then record spans. Outside that block the original functions run
untouched, so untraced timings carry no instrumentation at all.
"""

import functools
import time
from contextlib import contextmanager

from dualseed import datagen, lap_core, rowdualnet, warmstart

# (module, attribute, span name). warmstart's own bindings of the solvers are
# what run_pipeline calls; lap_core's binding is what the cold path calls.
TRACED = (
    (datagen, "gen_dense", "datagen.gen_dense"),
    (datagen, "gen_block", "datagen.gen_block"),
    (datagen, "gen_labels", "datagen.gen_labels"),
    (rowdualnet, "train", "rowdualnet.train"),
    (rowdualnet, "forward", "rowdualnet.forward"),
    (warmstart, "warm_solve", "warmstart.warm_solve"),
    (warmstart, "extract_features", "warmstart.extract_features"),
    (warmstart, "solve_cold", "lap_core.solve_cold"),
    (warmstart, "solve_seeded", "lap_core.solve_seeded"),
    (lap_core, "solve_cold", "lap_core.solve_cold"),
)


class Tracer:
    """Spans with a name, a start and end (ns), a parent span and a request."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def root(self, request: str, name: str):
        """Install the wrappers and open the first span of a request."""
        self.request = request
        with self.installed(), self.span(name):
            yield

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TRACED, originals):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are recorded by one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations. A span's id is its
    index in the list.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]
