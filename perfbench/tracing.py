"""In-memory spans around the library calls that the pipeline modules make.

A ``Tracer`` replaces names in the modules that look them up at call time
(``rectiprior.posterior.solve_weighted``, ``rectiprior.harness.run_posterior``
and so on) with timing wrappers, and puts the originals back on exit.  The
library source is not edited.  Every span records its boundary name, start
and end on ``time.perf_counter``, the id of the span that caused it and the
index of the posterior draw it belongs to, so all spans of one draw share
that draw's index.

Draws may run on several engine threads at once.  Busy time is therefore
summed per boundary, never subtracted from one wall clock, and the overlap
is reported as ``posterior.concurrency``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

from rectiprior import harness, measures, posterior, rectifiers


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    draw: int | None
    error: bool
    size: int            # atoms drawn or rows loaded; 0 where it means nothing


def _draw_index(args, kwargs):
    return kwargs["draw_index"] if "draw_index" in kwargs else args[4]


# (module, attribute, boundary, size of the work, draw index taken from the call)
_BOUNDARIES = (
    (posterior, "run_posterior", "posterior.run", None, None),
    (harness, "run_posterior", "posterior.run", None, None),
    (posterior, "posterior_draw", "posterior.draw", None, _draw_index),
    (posterior, "make_calibration_sample", "rectifiers.calib", None, None),
    (rectifiers, "resample_nonparametric_bootstrap", "measures.bootstrap", None, None),
    (posterior, "fit_rectifier", "rectifiers.fit", None, None),
    (posterior, "apply_rectifier", "rectifiers.apply", None, None),
    (posterior, "realize_class_labels", "measures.realize_labels", None, None),
    (posterior, "sample_dirichlet_weights", "measures.dirichlet",
     lambda args, kwargs, result: args[0] + args[1], None),
    (posterior, "sample_uniform_dirichlet", "measures.dirichlet",
     lambda args, kwargs, result: args[0], None),
    (posterior, "solve_weighted", "losses.solve", None, None),
    (harness, "generate_scenario", "harness.generate", None, None),
    (harness, "classical_interval", "diagnostics.classical", None, None),
    (harness, "interval_score", "diagnostics.interval_score", None, None),
    (harness, "load_base_csv", "harness.load_base", lambda args, kwargs, result: result.k, None),
    (harness, "load_labeled_csv", "harness.load_labeled", lambda args, kwargs, result: result.n, None),
)


class Tracer:
    """Context manager that records spans while it is entered.

    Runs never overlap (the benchmark has one caller), so a draw started on
    an engine thread, whose own span stack is empty, takes the open
    ``posterior.run`` span as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_run: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name, size, draw_index in _BOUNDARIES:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, size, draw_index))
        concat = measures.Outcomes.__dict__["concat"]
        self._patch(measures.Outcomes, "concat",
                    staticmethod(self._wrap(concat.__func__, "measures.concat", None, None)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name, size, draw_index):
        tracer = self
        is_run = name == "posterior.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            outer_draw = getattr(local, "draw", None)
            draw = draw_index(args, kwargs) if draw_index else outer_draw
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._open_run
            stack.append(sid)
            local.draw = draw
            if is_run:
                tracer._open_run = sid
            error, result = True, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                local.draw = outer_draw
                if is_run:
                    tracer._open_run = parent
                work = size(args, kwargs, result) if size and not error else 0
                tracer.spans.append(Span(sid, name, start, end, parent, draw, error, work))

        return traced


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class LayerTotals:
    """Per-boundary sums over every traced operation of one benchmark run."""

    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.failed = Counter()
        self.size = Counter()
        self.draw_self = 0.0
        self.prefit = 0.0
        self.summary = 0.0

    def add(self, spans: list[Span]):
        by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            children.setdefault(s.parent, []).append(s)
            self.calls[s.name] += 1
            self.busy[s.name] += s.end - s.start
            self.failed[s.name] += s.error
            self.size[s.name] += s.size
        for s in spans:
            kids = children.get(s.id, [])
            if s.name == "posterior.draw":
                self.draw_self += (s.end - s.start) - _covered((k.start, k.end) for k in kids)
            elif s.name == "posterior.run":
                draws = [k.end for k in kids if k.name == "posterior.draw"]
                if draws:
                    self.summary += s.end - max(draws)
            elif s.name == "rectifiers.fit" and by_id.get(s.parent, s).name == "posterior.run":
                self.prefit += s.end - s.start

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation figures, named ``<module>.<boundary>.<stat>``."""
        m = {}
        for name in ("measures.dirichlet", "rectifiers.calib", "rectifiers.fit",
                     "rectifiers.apply", "losses.solve", "diagnostics.classical",
                     "measures.bootstrap"):
            m[f"{name}.calls"] = (self.calls[name] / ops, "count")
            m[f"{name}.busy_s"] = (self.busy[name] / ops, "s")
        m["measures.dirichlet.atoms"] = (self.size["measures.dirichlet"] / ops, "count")
        for name in ("measures.concat", "measures.realize_labels", "harness.generate",
                     "harness.load_base", "harness.load_labeled"):
            m[f"{name}.busy_s"] = (self.busy[name] / ops, "s")
        m["losses.solve.failed"] = (self.failed["losses.solve"] / ops, "count")
        m["diagnostics.interval_score.calls"] = (self.calls["diagnostics.interval_score"] / ops, "count")
        load_busy = self.busy["harness.load_base"]
        m["harness.load_base.rows_per_s"] = (
            self.size["harness.load_base"] / load_busy if load_busy else 0.0, "1/s")
        m["posterior.draw.self_s"] = (self.draw_self / ops, "s")
        m["posterior.prefit_s"] = (self.prefit / ops, "s")
        m["posterior.summary_s"] = (self.summary / ops, "s")
        m["posterior.draws_attempted"] = (self.calls["posterior.draw"] / ops, "count")
        m["posterior.draws_failed"] = (self.failed["posterior.draw"] / ops, "count")
        run_busy = self.busy["posterior.run"]
        m["posterior.concurrency"] = (
            self.busy["posterior.draw"] / run_busy if run_busy else 0.0, "ratio")
        return m
