"""In-memory span tracer and the wrappers that feed it.

A span records one call across a layer boundary: its name, start, end,
the span that was open when it began (its parent) and the request it
belongs to.  Spans are appended to flat typed arrays, so a traced run
keeps millions of them at ~28 bytes each, and are written out once, at
the end of the run (:meth:`Tracer.dump`).

Layers are instrumented from outside the program: :func:`install`
replaces a public callable *at the name its callers resolve* (for
example ``repro.core.engine:select_subtasks``, not the defining module)
with a wrapper that opens and closes a span around the original, and
:func:`restore` puts the originals back.

A span's *self time* is its duration minus that of its child spans
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: count(tracer, args, kwargs, result, duration) -> None
CountFn = Callable[["Tracer", tuple, dict, Any, float], None]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int


class Tracer:
    """Collects spans and named counters in memory (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = [-1]
        self.request = -1
        self.counts: Dict[str, float] = {}
        self._excluded: List[Tuple[int, float, float]] = []

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self, nid: int) -> int:
        sid = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._request.append(self.request)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(self._clock())
        return sid

    def _close(self, sid: int) -> float:
        end = self._end[sid] = self._clock()
        self._stack.pop()
        return end - self._start[sid]

    def exclude(self, start: float, duration: float) -> None:
        """Record benchmark time spent inside whatever span is open.

        Called from a signal handler (the calibration walk), so it only
        appends.  :meth:`summary` removes the interval from the self
        time of the innermost span around it and reports it as a
        ``calibrate`` span instead.
        """
        self._excluded.append((self._stack[-1], start, duration))

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[int]:
        """Open a span for the ``with`` body; *request* starts a request."""
        outer = self.request
        if request is not None:
            self.request = request
        sid = self._open(self.name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)
            self.request = outer

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[CountFn] = None,
        wrap_arg: Optional[Tuple[int, str, str]] = None,
    ) -> Callable:
        """*fn* with a span named *name* around every call.

        *count* runs after a successful call with the call's arguments,
        result and duration.  *wrap_arg* = ``(index, keyword, span)``
        additionally wraps a callable argument (a search loop's step
        function) so its own time is a child span.
        """
        nid = self.name_id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_arg is not None:
                args, kwargs = self._wrap_argument(wrap_arg, args, kwargs)
            sid = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = closed(sid)
            if count is not None:
                count(self, args, kwargs, result, duration)
            return result

        return traced

    def _wrap_argument(self, spec, args, kwargs):
        index, keyword, span_name = spec
        if len(args) > index:
            args = list(args)
            args[index] = self.wrap(span_name, args[index])
            return tuple(args), kwargs
        if keyword in kwargs:
            kwargs = dict(kwargs)
            kwargs[keyword] = self.wrap(span_name, kwargs[keyword])
        return args, kwargs

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def durations(self, name: str) -> List[float]:
        """Durations of every span called *name*, in opening order."""
        nid = self._ids.get(name)
        return [
            e - s
            for n, s, e in zip(self._name, self._start, self._end)
            if n == nid
        ]

    def count_under(self, ancestors: Sequence[str], ancestor: str, name: str) -> int:
        """Spans called *name* whose nearest span among *ancestors* is
        *ancestor* (e.g. delta probes made inside an SA run)."""
        marks = {self._ids[a] for a in ancestors if a in self._ids}
        target, want = self._ids.get(name), self._ids.get(ancestor)
        if target is None or want is None:
            return 0
        owner = array("i", [-1]) * len(self._start)
        hits = 0
        for i, (n, p) in enumerate(zip(self._name, self._parent)):
            if n in marks:
                owner[i] = n
            elif p >= 0:
                owner[i] = owner[p]
            if n == target and owner[i] == want:
                hits += 1
        return hits

    def spans(self) -> List[Span]:
        names = self.names
        return [
            Span(names[n], s, e, p, r)
            for n, s, e, p, r in zip(
                self._name, self._start, self._end, self._parent, self._request
            )
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        return _aggregate(
            self.names, self._name, self._parent, self._start, self._end,
            self._excluded,
        )

    def dump(self, path: str) -> None:
        """Write every span to *path* as a NumPy ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            request=np.frombuffer(self._request, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate *spans* (``parent`` indexes into them) by name."""
    ids: Dict[str, int] = {}
    for sp in spans:
        ids.setdefault(sp.name, len(ids))
    return _aggregate(
        list(ids),
        [ids[sp.name] for sp in spans],
        [sp.parent for sp in spans],
        [sp.start for sp in spans],
        [sp.end for sp in spans],
    )


def _aggregate(names, name, parent, start, end, excluded=()) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per span name.

    Spans of one thread nest: children run one after another inside
    their parent, so the part of a parent they cover is the sum of their
    durations.  Each *excluded* ``(open span, start, duration)`` counts
    as a child of the innermost span that contains it.
    """
    n = len(start)
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    walks = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for sid, t0, duration in excluded:
        # a signal can land while a span is being opened or closed
        while sid >= 0 and not (start[sid] <= t0 and t0 + duration <= end[sid]):
            sid = parent[sid]
        if sid >= 0:
            covered[sid] += duration
            walks["calls"] += 1
            walks["total_s"] += duration
            walks["self_s"] += duration
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i in range(n):
        k = name[i]
        duration = end[i] - start[i]
        calls[k] += 1
        total[k] += duration
        own[k] += duration - covered[i]
    out = {
        names[k]: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
        for k in range(len(names))
        if calls[k]
    }
    if walks["calls"]:
        out["calibrate"] = walks
    return out


# ----------------------------------------------------------------------
# patching public callables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One instrumented callable.

    ``target`` is ``"module:attr.path"``; a path step into a ``dict``
    indexes it (``repro.online.policies:DISPATCH_POLICIES.heft``).
    """

    target: str
    span: str
    count: Optional[CountFn] = None
    wrap_arg: Optional[Tuple[int, str, str]] = None


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    obj: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    return obj, parts[-1]


def _get(container: Any, key: str) -> Any:
    if isinstance(container, dict):
        return container[key]
    return container.__dict__[key] if isinstance(container, type) else getattr(container, key)


def _set(container: Any, key: str, value: Any) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def install(tracer: Tracer, probes: Sequence[Probe]) -> List[Tuple[Any, str, Any]]:
    """Wrap every probe's target; returns what :func:`restore` undoes."""
    patches = []
    try:
        for probe in probes:
            container, key = _resolve(probe.target)
            original = _get(container, key)
            _set(
                container,
                key,
                tracer.wrap(probe.span, original, probe.count, probe.wrap_arg),
            )
            patches.append((container, key, original))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: List[Tuple[Any, str, Any]]) -> None:
    for container, key, original in reversed(patches):
        _set(container, key, original)
    patches.clear()


@contextmanager
def installed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[Tracer]:
    patches = install(tracer, probes)
    try:
        yield tracer
    finally:
        restore(patches)
