"""Spans around calls into the program's layers, recorded from outside.

The benchmark never edits the program: a traced pass replaces each timed
entry point (a class method or a module-level name another module bound) by
a wrapper that records one span per call, and puts the original back when
the pass ends.  Spans live in memory as compact arrays -- name, start, end,
parent -- and are written out once, after the pass.

Self time is computed as the spans close: a span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import zlib
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class SpanRecorder:
    """In-memory span buffer plus per-name calls / total / self seconds."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Free-form per-name tallies filled by wrapper hooks (bytes, hits).
        self.tally: Dict[str, float] = {}
        # Open spans: [span index, accumulated child seconds].
        self._open: List[list] = []

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return ident

    def open(self, name: str) -> None:
        index = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.end.append(0.0)
        self._open.append([index, 0.0])
        self.start.append(time.perf_counter())

    def close(self) -> None:
        now = time.perf_counter()
        index, children = self._open.pop()
        self.end[index] = now
        duration = now - self.start[index]
        name = self.names[self.name_of[index]]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self._open:
            self._open[-1][1] += duration

    def add(self, key: str, amount: float) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in self.names
        }

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans (zlib-compressed arrays) and a JSON summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                **meta,
                "names": self.names,
                "spans": len(self.start),
                "layout": "name_of:u16[], start:f64[], end:f64[], parent:i32[]",
            }
        ).encode()
        body = b"".join(
            column.tobytes()
            for column in (self.name_of, self.start, self.end, self.parent)
        )
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(4, "big"))
            fh.write(header)
            fh.write(zlib.compress(body, 1))
        summary = {**meta, "entry_points": self.summary(), "tally": self.tally}
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1))


Hook = Callable[[SpanRecorder, tuple, Any], None]


def _wrapped(recorder: SpanRecorder, name: str, fn: Callable, hook: Optional[Hook]):
    open_, close = recorder.open, recorder.close
    if hook is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            hook(recorder, args, result)
            return result

    return wrapper


class Patches:
    """Entry-point wrappers installed on enter and removed on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._plan: List[Tuple[Any, str, str, Optional[Hook]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def add(self, owner: Any, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        """Time ``owner.attr`` (a class or module attribute) as span *name*."""
        self._plan.append((owner, attr, name, hook))

    def __enter__(self) -> "Patches":
        for owner, attr, name, hook in self._plan:
            # An inherited method is wrapped on this class only, and removed
            # again on exit rather than re-set.
            own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, _wrapped(self.recorder, name, getattr(owner, attr), hook))
        return self

    @contextlib.contextmanager
    def paused(self):
        """Put the originals back for the duration of the block."""
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()
