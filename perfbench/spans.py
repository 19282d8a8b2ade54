"""In-memory spans and counters for the traced benchmark run.

The tracer wraps hopfsim's public functions from outside the package: each
wrapper opens a span (name, start, end, parent) around the original call and
may add computed work counts.  A function is rebound in every hopfsim module
namespace that holds it, because modules import each other's functions by
name (``invariants`` calls its own binding of ``sample_state_field``).
Spans opened in a worker thread that has no open span of its own take the
innermost open "adopting" span as parent, which is how the campaign's pool
threads hang under ``run_campaign``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counts; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._adopters = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, adopt_threads=False):
        """Start a span; returns a token for ``close``."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._adopters[-1] if self._adopters else None
            if adopt_threads:
                self._adopters.append(sid)
        stack.append(sid)
        return (sid, name, parent, adopt_threads, self.clock())

    def close(self, token):
        end = self.clock()
        sid, name, parent, adopt_threads, start = token
        self._stack().pop()
        with self._lock:
            if adopt_threads:
                self._adopters.remove(sid)
            self.spans.append(Span(sid, name, start, end, parent))

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    def merge(self, spans, counts):
        """Add spans and counts recorded elsewhere (another process).

        Span ids are renumbered so they cannot collide with this tracer's.
        """
        with self._lock:
            remap = {s.sid: next(self._ids) for s in spans}
            for s in spans:
                self.spans.append(Span(remap[s.sid], s.name, s.start, s.end,
                                       remap.get(s.parent)))
            self.counts.update(counts)


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span id: duration minus the part of it that child spans cover.

    Children running in parallel threads overlap; their union is subtracted
    once, so the remainder of a pool's parent is the time no worker ran.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]]
        out[s.sid] = (s.end - s.start) - covered_length(clipped)
    return out


def summarize(spans):
    """{name: (total self seconds, calls)} over all spans of each name."""
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    for s in spans:
        total[s.name] += selfs[s.sid]
        calls[s.name] += 1
    return {name: (total[name], calls[name]) for name in total}


# ---------------------------------------------------------------------------
# rebinding functions in module namespaces


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _package_modules(package):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def rebind_everywhere(patches, package, original, replacement):
    """Replace ``original`` by ``replacement`` in every module of ``package``
    that binds it; returns how many bindings were replaced."""
    hits = 0
    for mod in _package_modules(package):
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, attr, replacement)
                hits += 1
    return hits


def traced(tracer, name, fn, span=True, adopt_threads=False, before=None, after=None):
    """Wrap ``fn``: optional span, ``before(args, kwargs)`` and
    ``after(result_or_exception, args, kwargs)`` hooks for work counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        token = tracer.open(name, adopt_threads) if span else None
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            if after is not None:
                after(err, args, kwargs)
            raise
        finally:
            if token is not None:
                tracer.close(token)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper
