"""Spans at the library's module boundaries, taken from outside the library.

For the traced run only, the benchmark rebinds the module attributes the
library looks up at call time (`fluxdg.batched.mesh_*`, ...) to wrappers
that record a span, and restores them afterwards. A span carries its name,
start, end and parent, the flux/log-mean counts made inside it (through a
`count_guard(FluxCounter())` opened in the span) and, when allocation
tracking is on, the tracemalloc peak reached inside it. Spans stay in
memory until the run writes them out.
"""

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from fluxdg import FluxCounter, count_guard

# (module, attribute or prefix*, span name prefix or name)
BOUNDARIES = (
    ("fluxdg.batched", "mesh_*", "batched."),
    ("fluxdg.batched", "cons2prim", "euler.cons2prim"),
    ("fluxdg.discretization", "surface_terms", "discretization.surface_terms"),
    ("fluxdg.discretization", "volume_strong", "discretization.volume_strong"),
    ("fluxdg.discretization", "entropy_vars", "euler.entropy_vars"),
    ("fluxdg.discretization", "entropy2cons", "euler.entropy2cons"),
    ("fluxdg.discretization", "compute_metrics", "geometry.compute_metrics"),
    ("fluxdg.discretization", "make_operator", "operators.make_operator"),
)

COUNTS = ("two_point_evals", "one_point_evals", "logmean_evals")


@dataclass
class Span:
    name: str
    index: int  # position in Tracer.spans
    parent: int  # index of the enclosing span, -1 for a root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    alloc_peak: int = 0  # bytes above the level at span start
    _start_bytes: int = 0
    _peak_abs: int = 0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder. Single-threaded, like the benchmark."""

    def __init__(self, track_alloc=False):
        self.track_alloc = track_alloc
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = Span(name, len(self.spans), parent.index if parent else -1)
        self.spans.append(rec)
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent._peak_abs = max(parent._peak_abs, peak)
            tracemalloc.reset_peak()
            rec._start_bytes = current
            rec._peak_abs = current
        self._open.append(rec)
        counter = FluxCounter()
        try:
            with count_guard(counter):
                rec.start = time.perf_counter()
                try:
                    yield rec
                finally:
                    rec.end = time.perf_counter()
        finally:
            self._open.pop()
            rec.counts = {k: getattr(counter, k) for k in COUNTS}
            if self.track_alloc:
                rec._peak_abs = max(rec._peak_abs, tracemalloc.get_traced_memory()[1])
                rec.alloc_peak = rec._peak_abs - rec._start_bytes
                if parent is not None:
                    parent._peak_abs = max(parent._peak_abs, rec._peak_abs)

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self):
        """Spans as plain rows (name, start, end, parent, counts, alloc)."""
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **s.counts,
                "alloc_peak": s.alloc_peak,
            }
            for s in self.spans
        ]


def _targets(boundaries):
    """Yield (module, attribute, span name) for every boundary that exists,
    and (None, qualified name, None) for every one that does not."""
    for module_name, attr, name in boundaries:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            yield None, "%s.%s" % (module_name, attr), None
            continue
        if attr.endswith("*"):
            prefix = attr[:-1]
            found = sorted(
                a for a in vars(module) if a.startswith(prefix)
                and callable(getattr(module, a))
            )
            if not found:
                yield None, "%s.%s" % (module_name, attr), None
            for a in found:
                yield module, a, name + a
        elif callable(getattr(module, attr, None)):
            yield module, attr, name
        else:
            yield None, "%s.%s" % (module_name, attr), None


@contextmanager
def rebound(tracer, boundaries=BOUNDARIES):
    """Route the library's boundary lookups through `tracer` for the body.

    Yields the list of boundary names that do not exist (reported, not
    raised). Every rebound attribute is restored on exit, even on error.
    """
    saved = []
    absent = []
    try:
        for module, attr, name in _targets(boundaries):
            if module is None:
                absent.append(attr)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(spans):
    """Aggregate spans by name: calls, inclusive seconds, self seconds,
    counts and the largest allocation peak.

    Self time is a span's duration minus the durations of its direct
    children (spans never overlap: the benchmark is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    out = {}
    for s, ct in zip(spans, child_time):
        agg = out.setdefault(
            s.name,
            {"calls": 0, "s": 0.0, "self_s": 0.0, "alloc_peak": 0,
             **{k: 0 for k in COUNTS}},
        )
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["self_s"] += s.duration - ct
        agg["alloc_peak"] = max(agg["alloc_peak"], s.alloc_peak)
        for k in COUNTS:
            agg[k] += s.counts.get(k, 0)
    return out
