"""In-memory span recorder for the benchmark's traced runs.

A traced run wraps public functions and class methods of each layer with
:meth:`SpanRecorder.span_wrapper` (or :meth:`SpanRecorder.count_wrapper`
for calls too frequent to time one by one).  Every call records one span:
``(name, start, end, parent, check)`` where ``parent`` is the index of the
enclosing span (``-1`` at the top) and ``check`` the id of the benchmark
check that was running.  Spans stay in memory and are written as JSON when
the run ends.

A layer's *self time* is a span's duration minus the part of its interval
covered by its child spans (:func:`self_times`).

``from module import name`` copies a binding, so wrapping the defining
module's attribute is not enough: :meth:`SpanRecorder.install` replaces
every ``repro.*`` module attribute that is the original object (for
example ``eliminate_equalities`` as bound in ``repro.solver.solver`` and
``repro.lia.solver``).  Class methods are wrapped on the class itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: one recorded span: name, start, end (perf_counter seconds), index of
#: the parent span (-1 for none), benchmark check id (-1 outside checks)
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Collects spans and call counts; installs and removes wrappers."""

    def __init__(self, module_prefix: str = "repro") -> None:
        self.module_prefix = module_prefix
        self.spans: List[Span] = []
        #: call counts per name, then per benchmark check id
        self.counts: Dict[str, Dict[int, int]] = {}
        #: id of the benchmark check in progress (set by the workload loop)
        self.check = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            recorder.spans.append((name, 0.0, 0.0, parent, recorder.check))
            recorder._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder.spans[index] = (name, start, end, parent, recorder.check)

        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        recorder = self
        counts = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[recorder.check] = counts.get(recorder.check, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, name: str, fn: Callable, count_only: bool = False) -> int:
        """Replace every ``repro.*`` module binding of ``fn``; returns how many."""
        wrapper = (self.count_wrapper if count_only else self.span_wrapper)(name, fn)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.module_prefix
                or module_name.startswith(self.module_prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    replaced += 1
        return replaced

    def wrap_method(self, name: str, cls: type, method: str, count_only: bool = False) -> None:
        fn = cls.__dict__[method]
        wrapper = (self.count_wrapper if count_only else self.span_wrapper)(name, fn)
        self._set(cls, method, wrapper)

    def install(self, targets: Iterable[Tuple[str, object, Optional[str], bool]]) -> None:
        """Install ``(span name, function-or-class, method or None, count_only)``."""
        for name, owner, method, count_only in targets:
            if method is None:
                if self.wrap_function(name, owner, count_only) == 0:
                    raise RuntimeError(f"no module binds {owner!r}")
            else:
                self.wrap_method(name, owner, method, count_only)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "check"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to the parent's interval; overlapping children
    are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _check in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _check) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def self_ms_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name, in milliseconds."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own * 1000.0
    return totals
