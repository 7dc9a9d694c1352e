"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files around the public
sdlab calls each workload makes: name, start, end, parent span and a
shared operation id.  FFT calls are counted by wrapping
``scipy.fft.fftn``/``ifftn`` (``sdlab.grid`` looks them up at call
time), and their time is charged to the innermost open span, so a
span's self time is its duration minus its child spans and the FFT time
spent directly inside it.  Nothing under ``src/`` is modified; every
patch is undone by ``Tracer.uninstall``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "fft_calls", "fft_s", "incl_fft_calls",
                 "incl_fft_s", "child_s")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = None
        self.fft_calls = 0  # FFTs issued directly inside this span
        self.fft_s = 0.0
        self.incl_fft_calls = 0  # FFTs inside this span or any descendant
        self.incl_fft_s = 0.0
        self.child_s = 0.0  # summed duration of direct child spans

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.fft_s

    def as_dict(self, index):
        return {
            "id": index, "name": self.name, "op": self.op, "parent": self.parent,
            "start": self.start, "end": self.end, "fft_calls": self.fft_calls,
            "fft_s": self.fft_s, "incl_fft_calls": self.incl_fft_calls, "self_s": self.self_s,
        }


class Tracer:
    """Collects spans; ``install`` wraps the FFT entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = 0
        self._patches = []
        self.fft_calls = 0
        self.fft_s = 0.0

    # -- spans -----------------------------------------------------------

    def new_op(self):
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent].op if parent is not None else self._op
        sp = Span(name, op, parent, time.perf_counter())
        index = len(self.spans)
        self.spans.append(sp)
        self._stack.append(index)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def wrap(self, name, fn):
        """Return fn recorded as a child span named ``name`` on every call."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    # -- patches ---------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import scipy.fft

        for attr in ("fftn", "ifftn"):
            self.patch(scipy.fft, attr, self._count_fft(getattr(scipy.fft, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_fft(self, fn):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.fft_calls += 1
            self.fft_s += dt
            for index in self._stack:
                sp = self.spans[index]
                sp.incl_fft_calls += 1
                sp.incl_fft_s += dt
            if self._stack:
                sp.fft_calls += 1
                sp.fft_s += dt
            return out

        return counted

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")
