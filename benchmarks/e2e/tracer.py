"""Outside-in span tracing for the benchmark's traced runs.

The traced run wraps each layer's public entry point from here, never
from inside the program: methods on component instances, methods on
classes, and names rebound in the modules that import them.  Every
wrapped call becomes one in-memory span ``(layer, start_ns, end_ns,
parent, run)``; spans are written out only when the benchmark ends.

A layer whose methods call each other (``Model.loss_and_gradient_stack``
delegating to ``gradient_stack``) records only its outermost call, so a
layer's busy time is never counted twice.  A layer's *self* time is its
busy time minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: Pseudo-layer for the tracer's own bookkeeping (result hooks), so that
#: work never inflates the self time of the layer that called it.
TRACER_LAYER = "tracer"


class SpanRecorder:
    """Collects spans in memory and derives per-layer totals."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def wrap(self, layer: str, function, on_result=None):
        """``function`` recording one span per outermost call.

        ``on_result(args, kwargs, result)`` runs after the span closes,
        inside a :data:`TRACER_LAYER` span of its own.
        """
        spans, stack, open_layers = self.spans, self._stack, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if open_layers[layer]:
                return function(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # children take the next indices
            stack.append(index)
            open_layers[layer] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                open_layers[layer] -= 1
                stack.pop()
                spans[index] = (layer, start, end, parent, self.run_id)
            if on_result is not None:
                index = len(spans)
                spans.append(None)
                start = clock()
                try:
                    on_result(args, kwargs, result)
                finally:
                    spans[index] = (TRACER_LAYER, start, clock(), parent, self.run_id)
            return result

        return traced

    def totals(self) -> tuple[dict, dict]:
        """Per-layer ``(busy_ns, self_ns)`` over all spans."""
        busy: Counter = Counter()
        own: Counter = Counter()
        children = np.zeros(len(self.spans), dtype=np.int64)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - int(children[index])
        return dict(busy), dict(own)

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line (the trace artifact)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements that are undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        previous = vars(owner).get(name, self._MISSING)
        setattr(owner, name, value)
        self._undo.append((owner, name, previous))

    def wrap_method(self, recorder, layer, owner, name, on_result=None) -> None:
        """Wrap ``owner.name`` (a class or an instance) with a span."""
        self.set(owner, name, recorder.wrap(layer, getattr(owner, name), on_result))

    def restore(self) -> None:
        for owner, name, previous in reversed(self._undo):
            if previous is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._undo.clear()
