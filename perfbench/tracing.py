"""In-memory spans recorded around calls into mixcert's public functions.

A span has a name, a start, an end, the index of its parent span and the id
of the run it belongs to. Spans stay in memory for the life of a `Tracer`;
the caller turns them into per-name self times when the pass ends. A span's
self time is its duration minus the time its child spans cover; calls here
are sequential, so the children of one span never overlap. The results of
calls whose span name is in `keep` are kept too, in call order.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records nested spans; `call` and `patched` wrap calls from outside."""

    def __init__(self, run_id: str, keep=()):
        self.run_id = run_id
        self.keep = frozenset(keep)
        self.spans: list[Span] = []
        self.results: dict = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            result = fn(*args, **kwargs)
        if name in self.keep:
            self.results.setdefault(name, []).append(result)
        return result

    @contextlib.contextmanager
    def patched(self, target, names: dict):
        """Rebind `target.<attr>` to a span-recording wrapper for each
        attr -> span name in `names`, restoring the originals on exit.

        `target` is a module, or a class whose attr is called on the class
        (a classmethod). This places spans on the calls one library module
        makes into another (for example bounds -> process) without editing
        the library.
        """
        originals = {attr: vars(target)[attr] for attr in names}

        def wrap(attr):
            fn = getattr(target, attr)
            wrapper = lambda *a, **k: self.call(names[attr], fn, *a, **k)  # noqa: E731
            return staticmethod(wrapper) if isinstance(target, type) else wrapper

        try:
            for attr in names:
                setattr(target, attr, wrap(attr))
            yield
        finally:
            for attr, raw in originals.items():
                setattr(target, attr, raw)

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict = {}
        for sp, covered in zip(self.spans, child_time):
            out[sp.name] = out.get(sp.name, 0.0) + (sp.end - sp.start - covered)
        return out

    def counts(self) -> dict:
        out: dict = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0) + 1
        return out

    def wall(self) -> float:
        roots = [sp for sp in self.spans if sp.parent is None]
        return sum(sp.end - sp.start for sp in roots)
