"""Span recording from outside the program, and the self-time arithmetic.

The benchmark times calls into each layer's public functions without
editing the program: :func:`patch` replaces every binding of a public
function (or method, property, static method) with a wrapper that records
a span.  A function imported by name into another module is replaced
there too, because that module looks it up in its own namespace, not in
the defining one.

Spans live in memory (a list of tuples) and are written out only when
the run ends.  Each span records ``(id, parent, name, start, end)``; the
parent is the span that was open in the caller's context when the call
began.  Thread pools do not carry :mod:`contextvars` into their workers,
so :func:`propagate_context_to_threads` makes ``ThreadPoolExecutor.submit``
run each task in a copy of the submitter's context -- a router span then
parents the shard calls it fans out to executor threads.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (span id, parent span id or None, name, start, end).
Span = Tuple[int, Optional[int], str, float, float]

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """In-memory span buffer; spans are kept only while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Drop every recorded span (e.g. the copy a forked child inherits)."""
        self.spans = []

    def open(self) -> Tuple[int, Optional[int], contextvars.Token]:
        """Start a span in the current context; returns its handle."""
        span_id = next(self._ids)
        parent = _CURRENT.get()
        return span_id, parent, _CURRENT.set(span_id)

    def close(
        self,
        handle: Tuple[int, Optional[int], contextvars.Token],
        name: str,
        start: float,
        end: float,
    ) -> None:
        """Finish a span opened by :meth:`open`."""
        span_id, parent, token = handle
        _CURRENT.reset(token)
        if self.active:
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recording one ``name`` span per call."""
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return function(*args, **kwargs)
            handle = recorder.open()
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(handle, name, start, time.perf_counter())

        return traced

    def dump(self, path: Path) -> None:
        """Write the buffered spans as JSON (one file per process)."""
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def load_spans(path: Path) -> List[Span]:
    """Read spans written by :meth:`Recorder.dump`."""
    return [
        (int(s[0]), None if s[1] is None else int(s[1]), str(s[2]), float(s[3]), float(s[4]))
        for s in json.loads(path.read_text(encoding="utf-8"))
    ]


# -- self time ---------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and merged before
    subtracting, so overlapping children (a parent fanning out to
    threads) are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    result: Dict[int, float] = {}
    for span_id, _, _, start, end in spans:
        clipped = [
            (max(start, c_start), min(end, c_end))
            for c_start, c_end in children.get(span_id, ())
            if c_end > start and c_start < end
        ]
        result[span_id] = (end - start) - covered_length(clipped)
    return result


def rollup(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed self time and inclusive time."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "self_s": 0.0, "inclusive_s": 0.0}
    )
    for span_id, _, name, start, end in spans:
        row = table[name]
        row["calls"] += 1
        row["self_s"] += selfs[span_id]
        row["inclusive_s"] += end - start
    return dict(table)


# -- patching ----------------------------------------------------------


def _rebind(original: Any, replacement: Any) -> int:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                count += 1
    return count


def patch(recorder: Recorder, name: str, target: str) -> None:
    """Record ``name`` spans around ``target`` = ``"module:attr[.attr]"``.

    A module-level function is replaced wherever it is bound; a class
    attribute is replaced on the class, keeping its descriptor kind
    (plain, static, class method or property).
    """
    module_name, _, qualname = target.partition(":")
    module = import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        original = getattr(module, attr)
        if _rebind(original, recorder.wrap(name, original)) == 0:
            raise LookupError(f"no binding of {target} found")
        return
    owner = getattr(module, owner_name)
    descriptor = owner.__dict__[attr]
    if isinstance(descriptor, staticmethod):
        replacement: Any = staticmethod(recorder.wrap(name, descriptor.__func__))
    elif isinstance(descriptor, classmethod):
        replacement = classmethod(recorder.wrap(name, descriptor.__func__))
    elif isinstance(descriptor, property):
        replacement = property(
            recorder.wrap(name, descriptor.fget), descriptor.fset, descriptor.fdel
        )
    else:
        replacement = recorder.wrap(name, descriptor)
    setattr(owner, attr, replacement)


def propagate_context_to_threads() -> Callable[[], None]:
    """Run ``ThreadPoolExecutor`` tasks in their submitter's context.

    Returns the function that undoes it.
    """
    original_submit = ThreadPoolExecutor.submit

    def submit(self: ThreadPoolExecutor, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        return original_submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit  # type: ignore[method-assign]

    def undo() -> None:
        ThreadPoolExecutor.submit = original_submit  # type: ignore[method-assign]

    return undo


def dump_in_forked_child(
    recorder: Recorder, target: str, work_dir: Path
) -> None:
    """Make the process body ``target`` write its own spans on exit.

    The body runs in a forked child that inherits the parent's buffer,
    so the wrapper clears it first; the spans are written to
    ``work_dir/spans-<pid>.json`` when the body returns.
    """
    module_name, _, attr = target.partition(":")
    module = import_module(module_name)
    original = getattr(module, attr)

    @functools.wraps(original)
    def body(*args: Any, **kwargs: Any) -> Any:
        recorder.reset()
        recorder.active = True
        try:
            return original(*args, **kwargs)
        finally:
            recorder.active = False
            recorder.dump(work_dir / f"spans-{os.getpid()}.json")

    setattr(module, attr, body)


def child_spans(work_dir: Path) -> List[List[Span]]:
    """Span lists written by forked children into ``work_dir``."""
    return [load_spans(path) for path in sorted(work_dir.glob("spans-*.json"))]
