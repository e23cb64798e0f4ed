"""Spans recorded from outside the library, around calls into its layers.

The tracer replaces public functions with wrappers by assigning module
attributes.  That reaches every call the library makes through a module
(``linalgq.char_coeffs(...)``) or through a module global looked up at call
time (``bracket`` inside ``poisson.verify_involution``).  It cannot see
functions bound elsewhere at import time: ``polyq.add`` and ``polyq.mul``
live inside ``linalgq.POLY_RING``, so their cost shows as self time of the
``char_coeffs`` span that calls them.

A span is (id, name, start, end, parent id, operation id).  Spans are kept
in memory and written out once, at the end of the run.  Outside an
operation (``tracer.op is None``) the wrappers record nothing, so the
output checks the benchmark runs between operations leave no spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

Span = Tuple[int, str, float, float, Optional[int], str]

STATS = ("calls", "self_s", "total_s")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Innermost open span that hands work to a thread pool; spans opened
        # on a worker thread with an empty stack attach to it.
        self._pool_parent: Optional[int] = None
        self._saved: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, end, parent, op) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, op))

    def run_op(self, op: str, fn: Callable, *args):
        """Call fn(*args) as operation `op`, under a root span named "op"."""
        self.op = op
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._close(sid, "op", start, end, parent, op)
            self.op = None

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[..., str]],
        pool_root: bool = False,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call made during an operation.

        `name` may be a function of the call's arguments.  `after(op,
        result, *args)` runs once the span has ended, so that size counts
        taken from a call's inputs or outputs stay outside the timing.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            sid, parent = tracer._open()
            if pool_root:
                outer, tracer._pool_parent = tracer._pool_parent, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if pool_root:
                    tracer._pool_parent = outer
                tracer._close(sid, label, start, end, parent, op)
            if after is not None:
                after(op, result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module, attr: str, *args, also=(), **kwargs) -> None:
        """Replace module.attr (and the same name in each module of `also`,
        which imported it by name) with a recording wrapper."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, *args, **kwargs)
        for target in (module, *also):
            self._saved.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive time and self time.

    Self time is a span's duration minus the part of it covered by its
    child spans.  Children on pool threads may overlap one another; the
    union is subtracted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: dict.fromkeys(STATS, 0))
    for sid, name, start, end, _, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
    return out
