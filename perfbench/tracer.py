"""Span tracing from outside the program, for the benchmark's traced run.

:func:`instrument` wraps the public functions of each layer of ``repro`` by
replacing module and class attributes for the duration of a ``with`` block,
and restores every original on exit.  No source file changes, and the
wrappers only observe arguments and results, so traced estimates equal
untraced ones (``run.py`` checks this with a digest).

A :class:`Tracer` keeps a stack of open spans.  When a span closes, its
duration is added to its parent's child time, so a layer's self time is its
span time minus the time its child spans cover, and the self times of one
call add up to the call's root span exactly.  Spans of the coarse layers
(:data:`RECORDED_LAYERS`) are also kept as records (name, start, end,
parent, trace id) and written out when the run ends; the fine-grained layers,
which fire hundreds of thousands of times per call, are only aggregated.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Layers whose every span is kept as a record, not only aggregated.
RECORDED_LAYERS = frozenset(
    {"api", "fpras", "montecarlo", "union.dp", "unroll.build"}
)

class Tracer:
    """Span stack plus per-layer aggregates for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Layer counters filled by result hooks (union trials, failures, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.trace_id = 0
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._next_span = 0
        self._origin = time.perf_counter()

    def wrap(
        self,
        layer: str,
        function: Callable,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``function`` timed as a span of ``layer``; ``after(args, result)`` observes it."""
        clock = time.perf_counter
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        open_spans = self._open
        recorded = layer in RECORDED_LAYERS

        def traced(*args, **kwargs):
            # A frame is [child seconds, id of the nearest recorded span].
            parent_span = stack[-1][1] if stack else None
            depth = open_spans[layer]
            open_spans[layer] = depth + 1
            if recorded:
                span_id = self._next_span
                self._next_span += 1
                frame = [0.0, span_id]
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                open_spans[layer] = depth
                self_s[layer] += duration - frame[0]
                if depth == 0:  # a span nested in its own layer is already counted
                    total_s[layer] += duration
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if recorded:
                    self.spans.append(
                        (self.trace_id, span_id, parent_span, layer, start, end)
                    )
            if after is not None:
                after(args, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines (times relative to tracer start)."""
        with open(path, "w") as handle:
            for trace_id, span_id, parent, layer, start, end in self.spans:
                record = {
                    "trace": trace_id,
                    "span": span_id,
                    "parent": parent,
                    "name": layer,
                    "start": start - self._origin,
                    "end": end - self._origin,
                }
                handle.write(json.dumps(record) + "\n")


def _union_hook(tracer: Tracer, caller: str) -> Callable[[tuple, object], None]:
    counts = tracer.counts
    prefix = f"union.{caller}."

    def after(args: tuple, estimate) -> None:
        counts[prefix + "trials"] += estimate.trials
        counts[prefix + "unique_hits"] += estimate.unique_hits
        if estimate.unique_hits == 0 and estimate.sum_of_sizes > 0:
            counts[prefix + "zero_unique_calls"] += 1
        if estimate.exhausted:
            counts[prefix + "exhausted_calls"] += 1
        counts["union.membership_calls"] += estimate.membership_calls

    return after


def _fpras_hook(tracer: Tracer) -> Callable[[tuple, object], None]:
    counts = tracer.counts

    def after(args: tuple, result) -> None:
        statistics = args[0].sampler_statistics
        counts["sampler.fail_phi_overflow"] += statistics.failures_phi_overflow
        counts["sampler.fail_rejection"] += statistics.failures_rejection
        counts["sampler.fail_no_mass"] += statistics.failures_no_mass
        counts["sampler.union_calls"] += statistics.union_calls
        counts["sampler.union_cache_hits"] += statistics.union_cache_hits

    return after


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer's entry points; restore them on exit.

    An entry point the program no longer has is skipped, so its layer's
    metrics read 0 instead of the traced run failing.
    """
    import repro.automata.block as block
    import repro.counting.api as api
    import repro.counting.fpras as fpras
    import repro.counting.sampler as sampler
    import repro.counting.store as store
    from repro.automata.engine import Engine
    from repro.automata.unroll import UnrolledAutomaton

    patches = []

    def patch(owner, name: str, layer: str, after=None) -> None:
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            return
        patches.append((owner, name, original))
        setattr(owner, name, tracer.wrap(layer, original, after))

    def wrap_checkers(make_checker):
        # The membership closures are built per AppUnion call; wrap each one.
        return lambda self, states: tracer.wrap(
            "unroll.membership", make_checker(self, states)
        )

    try:
        patch(fpras.NFACounter, "run", "fpras", _fpras_hook(tracer))
        patch(fpras, "approximate_union", "union.dp", _union_hook(tracer, "dp"))
        patch(sampler, "approximate_union", "union.descent", _union_hook(tracer, "descent"))
        patch(sampler.SampleDraw, "draw", "sampler")
        patch(UnrolledAutomaton, "__init__", "unroll.build")
        patch(UnrolledAutomaton, "predecessor_fan", "unroll.fan")
        patch(UnrolledAutomaton, "warm_cache", "unroll.warm")
        patch(UnrolledAutomaton, "witness", "unroll.witness")
        make_checker = vars(UnrolledAutomaton).get("first_containing_batch")
        if make_checker is not None:
            patches.append((UnrolledAutomaton, "first_containing_batch", make_checker))
            UnrolledAutomaton.first_containing_batch = wrap_checkers(make_checker)
        kernel = getattr(block, "BlockLevelKernel", None)
        for method in ("step_level", "pre_level", "materialise_batch"):
            patch(kernel, method, "engine.kernel")
        engine_classes = [Engine]
        for engine_class in engine_classes:
            engine_classes.extend(engine_class.__subclasses__())
            patch(engine_class, "accepts_batch", "engine.accepts_batch")
        table = getattr(store, "_WindowedLevelTable", None)
        patch(table, "__setitem__", "store.write")
        # Whole-table reads (``__len__``, ``keys``) fault every spilled level back.
        for method in ("__getitem__", "get", "__contains__", "__len__", "keys"):
            patch(table, method, "store.read")
        patch(api, "run_montecarlo", "montecarlo")
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
