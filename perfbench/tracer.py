"""Span tracing from outside the program.

``Tracer.install`` replaces the public entry points of each layer, at the
module or class attribute through which their callers resolve them, with
wrappers that record one span per call: its name, window, start, end and
self time (its duration minus the child spans it covers).  Spans stay in
memory.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original attributes back.

Every wrapped function is synchronous, and the whole benchmark runs on
one event loop in one thread, so a plain stack of child-time accumulators
gives exact self times.  Garbage-collector pauses are spans of their own
(through ``gc.callbacks``), so they are not charged to the span they
interrupt.  The sum of all self times is the time covered by top-level
spans; the rest of the traced wall time is ``unattributed``.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns

Span = Tuple[str, str, int, int, int]  # window, name, start_ns, end_ns, self_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.layer_of: Dict[str, str] = {"gc": "runtime"}
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.wall_ns: Dict[str, int] = defaultdict(int)
        self.window = ""
        self.active = False
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_start = 0

    # -- windows -----------------------------------------------------------

    @contextmanager
    def run(self, window: str) -> Iterator[None]:
        """Trace everything the enclosed block calls, under ``window``."""
        self.window = window
        self.active = True
        start = _now()
        try:
            yield
        finally:
            self.active = False
            self.wall_ns[window] += _now() - start

    def count(self, key: str, amount: float = 1, window: Optional[str] = None) -> None:
        self.counts[(window or self.window, key)] += amount

    # -- spans -------------------------------------------------------------

    def _open(self) -> int:
        self._stack.append(0)
        return _now()

    def _close(self, name: str, start: int) -> None:
        end = _now()
        duration = end - start
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        self.spans.append((self.window, name, start, end, duration - children))

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span around benchmark code of the caller's own."""
        self.layer_of[name] = layer
        if not self.active:
            yield
            return
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def _on_gc(self, phase: str, _info: Dict[str, Any]) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = self._open()
        elif self._stack:
            self._close("gc", self._gc_start)

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        observe: Optional[Callable[..., None]] = None,
        pre: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(*args)`` runs before the call and its result is handed to
        ``observe(token, result, *args)`` after it; both run only while
        tracing is active and inside the span's own bookkeeping.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self
        self.layer_of[name] = layer

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            token = pre(*args) if pre is not None else None
            start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, start)
            if observe is not None:
                observe(token, result, *args)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- aggregation -------------------------------------------------------

    def totals(self, window: Optional[str] = None) -> Dict[str, Tuple[int, int, int, int]]:
        """name -> (calls, self_ns, total_ns, max_ns) over one or all windows."""
        out: Dict[str, List[int]] = {}
        for span_window, name, start, end, self_ns in self.spans:
            if window is not None and span_window != window:
                continue
            row = out.setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += self_ns
            row[2] += end - start
            row[3] = max(row[3], end - start)
        return {name: tuple(row) for name, row in out.items()}  # type: ignore[misc]

    def ledger(self) -> Dict[str, float]:
        """Self time per layer over every window, plus the unattributed
        remainder of the traced wall time, all in milliseconds."""
        layers: Dict[str, float] = defaultdict(float)
        for name, (_calls, self_ns, _total, _max) in self.totals().items():
            layers[self.layer_of[name]] += self_ns / 1e6
        wall_ms = sum(self.wall_ns.values()) / 1e6
        out = {layer: round(ms, 3) for layer, ms in sorted(layers.items())}
        out["unattributed"] = round(wall_ms - sum(layers.values()), 3)
        out["wall"] = round(wall_ms, 3)
        return out
