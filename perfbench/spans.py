"""Span recorder for the traced benchmark run.

The recorder wraps module attributes that the pipeline looks up at call
time (for example ``matchfield.em_refine.m_step``), so every call made
while an operation is active leaves a span: operation id, span id, parent
span id, name, start and end (``time.perf_counter`` seconds). Spans stay
in memory and are written out once, when the run ends. Counters are
recorded at the same boundaries: a wrapper may add to named counts from the
call's arguments and result, and may count one exception type before
re-raising it.

Outside an operation (set-up, warm-up, output checks) the wrappers pass
straight through and record nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def count(self, name: str, value: float = 1.0) -> None:
        if self.op is not None:
            self.counts[name] += value

    @contextmanager
    def span(self, name: str):
        """Record the body as one span of the active operation."""
        if self.op is None:
            yield
            return
        sid = self._open()
        t0 = perf()
        try:
            yield
        finally:
            self._close(sid, name, t0)

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float) -> None:
        t1 = perf()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.op, sid, parent, name, t0, t1))

    def wrap(self, module, attr: str, name: str, on_result=None, counted_error=None) -> None:
        """Replace module.attr by a recording wrapper until restore().

        on_result(recorder, args, kwargs, result) runs after the span has
        closed. counted_error is (exception type, counter name): that
        exception is counted and re-raised. An attribute the module does not
        have is skipped, so a layer the package drops reads zero.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                return orig(*args, **kwargs)
            sid = rec._open()
            t0 = perf()
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                if counted_error is not None and isinstance(e, counted_error[0]):
                    rec.counts[counted_error[1]] += 1
                raise
            finally:
                rec._close(sid, name, t0)
            if on_result is not None:
                on_result(rec, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for op, sid, parent, name, t0, t1 in self.spans:
                f.write(
                    json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                "start": t0, "end": t1}) + "\n"
                )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children.

    Children run nested and one after another on a single thread, so the
    covered part is the sum of the children's durations.
    """
    own = {sid: t1 - t0 for _, sid, _, _, t0, t1 in spans}
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    return own
