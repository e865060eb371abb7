"""Spans and counters recorded from outside the program.

Tracing rebinds the module and class attributes through which callers
resolve a function, so that every call goes through a wrapper, and puts the
originals back afterwards. Boundary calls get one span each (name, start,
end, parent span, thread). Per-step primitives, called 10^5-10^6 times in
one fit, are only counted: each thread keeps its own call count and busy
time, merged when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.info: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._tallies: list[dict[str, float]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self) -> dict[str, float]:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = {}
            with self._lock:
                self._tallies.append(tally)
        return tally

    def spanned(self, fn, name, describe=None):
        """Wrap fn so that each call records a span.

        name is a string or a function of (args, kwargs) giving one;
        describe(args, kwargs, result) may return a dict kept on the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name if isinstance(name, str) else name(args, kwargs),
                        stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, name: str, amounts=None):
        """Wrap fn so that each call adds to the name.calls and name.s counters;
        amounts(args, result) may return further {suffix: value} to add."""
        calls, secs = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            tally = self._tally()
            tally[calls] = tally.get(calls, 0) + 1
            tally[secs] = tally.get(secs, 0.0) + dt
            if amounts is not None:
                for suffix, value in amounts(args, result).items():
                    key = f"{name}.{suffix}"
                    tally[key] = tally.get(key, 0) + value
            return result

        return wrapper

    def counted_iter(self, fn, name: str):
        """Wrap a generator function so that each next() is counted and timed."""
        calls, secs = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tally = self._tally()
                    tally[secs] = tally.get(secs, 0.0) + (perf_counter() - t0)
                tally[calls] = tally.get(calls, 0) + 1
                yield item

        return wrapper

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        with self._lock:
            for tally in self._tallies:
                for key, value in tally.items():
                    out[key] = out.get(key, 0) + value
        return out

    # -- rebinding --------------------------------------------------------

    def rebind(self, original, make_wrapper, namespaces) -> int:
        """Replace every attribute bound to `original` in `namespaces` (modules
        or classes) by make_wrapper(namespace); returns how many were bound."""
        bound = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, make_wrapper(ns))
                    bound += 1
        return bound

    def restore(self) -> None:
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    # -- span arithmetic --------------------------------------------------

    def self_seconds(self, names) -> float:
        """Summed duration of spans in `names` minus the time their direct
        children cover (children run on the parent's thread, in sequence)."""
        names = set(names)
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and s.parent.name in names:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.seconds
        return sum(s.seconds - child_time.get(id(s), 0.0)
                   for s in self.spans if s.name in names)

    @staticmethod
    def has_ancestor(span: Span, names) -> bool:
        p = span.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "thread": s.thread, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]
