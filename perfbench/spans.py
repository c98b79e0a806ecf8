"""Span tracing around the simulator's public functions.

The tracer wraps functions from outside the program: each hook replaces a
function at every name it is bound under in the ``hqlink`` package (a module
that did ``from .tomography import mle_reconstruct`` holds its own binding),
and ``uninstall`` puts the originals back.  A hook whose target no longer
exists raises ``HookError`` instead of silently reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass


class HookError(RuntimeError):
    """A traced function could not be found or bound."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``run_id`` tags the operation they belong to."""

    def __init__(self, run_id: int = 0):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._open: list[int] = []
        self._restore: list = []
        self.bindings: dict[str, list[str]] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
        return hooked

    def install(self, hooks: dict[str, list[str]], package: str = "hqlink"):
        """Wrap every target; ``hooks`` maps a span name to "module:qualname" targets."""
        try:
            for name, targets in hooks.items():
                for target in targets:
                    self._hook(name, target, package)
        except BaseException:
            self.uninstall()
            raise

    def _hook(self, name: str, target: str, package: str):
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
            if owner is None:
                raise HookError(f"{target}: {part!r} not found")
        if attr not in vars(owner):
            raise HookError(f"{target}: {attr!r} not found (renamed or moved?)")
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            # methods live only on their class; classmethods keep their kind
            if isinstance(raw, classmethod):
                hooked = classmethod(self.wrap(name, raw.__func__))
            else:
                hooked = self.wrap(name, raw)
            setattr(owner, attr, hooked)
            self._restore.append((owner, attr, raw))
            self.bindings.setdefault(target, []).append(f"{owner.__module__}.{qualname}")
            return
        if not callable(raw):
            raise HookError(f"{target} is not callable")
        hooked = self.wrap(name, raw)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, hooked)
                    self._restore.append((mod, key, raw))
                    self.bindings.setdefault(target, []).append(f"{mod_name}.{key}")

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def outermost(spans: list[Span], name: str) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out
