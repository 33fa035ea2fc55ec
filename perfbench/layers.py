"""Per-layer host-time accounting for the traced benchmark run.

:class:`LayerTrace` wraps public entry points of each layer of ``repro``
(parse, front end, per-procedure compile, codegen emit/load, node
programs, array setup, communication, remap, flight recorder), times
them, and restores the originals on :meth:`LayerTrace.uninstall`.
Nothing inside ``src/`` knows about it.

Accounting is exclusive: at every span boundary the host time since the
previous boundary goes to the innermost open span (its *self* time) and
to every layer open around it (its *inclusive* time).  This stays exact
when ranks interleave.  On the cooperative scheduler ranks run on
separate threads but one at a time, so each thread keeps its own span
stack, and a thread with no open span charges the thread that installed
the trace (the one inside ``CompiledProgram.run``).  Generator entry
points (the event scheduler's ``_y`` twins) are timed per resumed step,
so time a rank spends suspended is not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Optional

_EMPTY: frozenset = frozenset()

#: communication entry points of the machine contexts (plain and ``_y``)
COMM_METHODS = ("send", "recv", "broadcast", "allreduce", "barrier",
                "exchange", "recv_y", "broadcast_y", "allreduce_y",
                "barrier_y", "exchange_y")


class LayerTrace:
    """Span accumulators plus the wrappers that feed them."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        #: outermost entries into each layer (re-entry is not a new call)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: node time with no communication or remap span open inside it
        self.node_self_s = 0.0
        self._stacks: dict[int, list[tuple[str, frozenset]]] = {}
        self._root = threading.get_ident()
        self._last = perf_counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting ---------------------------------------------------------

    def _stack(self) -> list[tuple[str, frozenset]]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def _charge(self, stack: list[tuple[str, frozenset]]) -> None:
        now = perf_counter()
        dt = now - self._last
        self._last = now
        if not stack:
            stack = self._stacks.get(self._root) or ()
            if not stack:
                return
        name, names = stack[-1]
        self.self_s[name] += dt
        for n in names:
            self.incl_s[n] += dt
        if "node" in names and "comm" not in names \
                and "remap" not in names:
            self.node_self_s += dt

    def enter(self, name: str, count: bool = True) -> None:
        """Open a *name* span; *count* it as a call unless the layer is
        already open (re-entry) or this resumes a generator."""
        stack = self._stack()
        self._charge(stack)
        if stack:
            base = stack[-1][1]
        else:
            root = self._stacks.get(self._root)
            base = root[-1][1] if root else _EMPTY
        if count and name not in base:
            self.calls[name] += 1
        stack.append((name, base | {name}))

    def exit(self) -> None:
        stack = self._stack()
        self._charge(stack)
        stack.pop()

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def snapshot(self) -> dict:
        """A copy of every accumulator (subtract two for a delta)."""
        return {
            "self": dict(self.self_s), "incl": dict(self.incl_s),
            "calls": dict(self.calls), "counts": dict(self.counts),
            "node_self_s": self.node_self_s,
        }

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             after: Optional[Callable] = None) -> Callable:
        """A timed stand-in for *fn*; *after(args, kwargs, result)*
        records counts once the call returns."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return (yield from self._steps(fn(*args, **kwargs), layer))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _steps(self, gen, layer: str):
        """Drive *gen*, timing each resumed step as one *layer* span."""
        value: Any = None
        exc: Optional[BaseException] = None
        first = True
        while True:
            self.enter(layer, count=first)
            first = False
            try:
                if exc is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            exc = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # re-raised inside gen
                exc = e

    def _patch_attr(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, fn: Callable, layer: str,
                       after: Optional[Callable] = None) -> None:
        """Replace *fn* in every ``repro`` module that binds it, so calls
        through ``from ... import`` names are timed too."""
        wrapper = self.wrap(fn, layer, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro"
                                   or modname.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch_attr(mod, attr, wrapper)

    def patch_method(self, cls: type, attr: str, layer: str,
                     after: Optional[Callable] = None) -> None:
        self._patch_attr(cls, attr,
                         self.wrap(cls.__dict__[attr], layer, after))

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        from repro import codegen, lang
        from repro.codegen import emit
        from repro.codegen.runtime import NodeRt
        from repro.core import driver
        from repro.interp.arrays import FArray
        from repro.interp.interpreter import Interpreter
        from repro.machine.event import EventProcContext
        from repro.machine.machine import ProcContext
        from repro.obs.flightrec import FlightRecorder
        from repro.runtime import remap

        counts = self.counts

        def emitted(args, kwargs, src):
            counts["source_bytes"] += len(src.encode())

        def generated(args, kwargs, result):
            _, hits, misses = result
            counts["codegen_hits"] += hits
            counts["codegen_misses"] += misses

        def allocated(args, kwargs, result):
            counts["arrays"] += 1
            counts["array_bytes"] += args[0].data.nbytes

        self.patch_function(lang.parse, "parse")
        self.patch_function(driver.front_end, "front_end")
        self.patch_function(driver.compile_procedure_unit, "procedure")
        self.patch_function(emit.emit_module, "emit", emitted)
        self.patch_function(codegen.get_generated, "load", generated)
        self.patch_function(remap.remap_array, "remap")
        self.patch_function(remap.remap_array_y, "remap")
        self.patch_method(NodeRt, "run", "node")
        self.patch_method(NodeRt, "run_y", "node")
        self.patch_method(Interpreter, "run", "node")
        self.patch_method(Interpreter, "run_events", "node")
        self.patch_method(FArray, "__init__", "alloc", allocated)
        self.patch_method(Interpreter, "_fill", "alloc")
        for cls in (ProcContext, EventProcContext):
            for name in COMM_METHODS:
                if name in cls.__dict__:
                    self.patch_method(cls, name, "comm")
        self.patch_method(FlightRecorder, "rank_event", "flightrec")
        self._last = perf_counter()

    def uninstall(self) -> None:
        """Put every original entry point back, newest patch first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def counting(self, init_fn: Callable) -> Callable:
        """The caller's array initializer, counting its calls."""
        counts = self.counts

        def init(name, indices):
            counts["init_calls"] += 1
            return init_fn(name, indices)
        return init
