"""Spans around ptyblind's public functions, recorded from outside the library.

:func:`traced` wraps every public function of the given layer modules
and binds the wrapper in place of the original under every name that
holds it in a loaded ``ptyblind`` module, so calls between modules
(``solver`` calling ``operators.extract_frames``) and inside one
(``operators.coverage_maps`` calling ``embed_add_frames``) are both
seen. On exit every original binding is restored. The library itself
is not edited.

A span's self time is its duration minus the durations of its direct
children; calls run one at a time, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # span_id of the caller's span, -1 at the top
    name: str  # "<layer>.<function>"
    start: float
    end: float
    run: int
    work: float = 0.0  # computed bytes or flops, for functions given a work model


class Tracer:
    """Collects spans in memory; ``run`` labels the pass they belong to."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.run = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                amount = work(args, result) if work is not None and result is not None else 0.0
                self.spans.append(Span(span_id, parent, name, start, end, self.run, amount))

        return traced_call


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


@contextmanager
def traced(
    tracer: Tracer,
    layers: dict[str, ModuleType],
    package: str,
    work: Optional[dict[str, Callable]] = None,
) -> Iterator[None]:
    """Trace every public function of ``layers`` while the block runs.

    ``layers`` maps a layer name to its module; spans are named
    ``<layer>.<function>``. ``work`` maps span names to a function of
    (args, result) giving the computed work of one call.
    """
    work = work or {}
    wrappers = {}
    for layer, module in layers.items():
        for fname, fn in public_functions(module).items():
            name = f"{layer}.{fname}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, work.get(name)))
    modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
    replaced = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced.append((module, attr, value))
        yield
    finally:
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    return {span.span_id: span.end - span.start - children[span.span_id] for span in spans}
