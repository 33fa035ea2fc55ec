"""Run-time support for generated node programs.

A generated module (see :mod:`repro.codegen.emit`) is straight-line
Python: it reads and writes frame scalars and numpy buffers directly
and charges the virtual clock inline.  Everything that must stay
*shared* with the interpreter — frame construction, COMMON storage,
the communication-schedule cache, print formatting, remap execution,
call/return conventions — goes through the :class:`NodeRt` shim so the
two execution paths cannot drift apart.  One ``NodeRt`` wraps one
:class:`~repro.interp.interpreter.Interpreter` instance per rank; any
procedure the generator demoted falls back to that interpreter's
compiled closures mid-run, transparently.  A procedure that may block
is a generator in both forms, so a caller enters either with
``yield from``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dist import Distribution
from ..interp.arrays import FArray
from ..interp.interpreter import (  # fdiv: imported by generated modules
    Frame, Interpreter, _Stop, _result, fdiv,
)
from ..runtime.remap import mark_array, remap_array_y


def ax_slice(arr: FArray, pos: int, first: int, last: int, st: int):
    """Loop-axis block section -> slice, bounds-checked at the block
    endpoints exactly like :func:`repro.interp.vectorize._block_slices`."""
    o_first = arr._offset(pos, first)
    o_last = arr._offset(pos, last)
    stop = o_last + (1 if st > 0 else -1)
    return slice(o_first, stop if stop >= 0 else None, st)


class NodeRt:
    """Per-rank runtime harness driving one generated module."""

    __slots__ = ("interp", "mod", "ctx", "tracer", "_caches")

    def __init__(self, interp: Interpreter, mod) -> None:
        self.interp = interp
        self.mod = mod
        self.ctx = interp.ctx
        self.tracer = interp.tracer
        #: per-comm-statement section caches, keyed by the static id the
        #: emitter assigned (mirrors the per-closure caches of the
        #: interpreter's compiled comm statements)
        self._caches: dict[int, dict] = {}

    # -- communication sections -------------------------------------------

    def comm_entry(self, sid: int, arr: FArray, raw: list):
        """Resolve one communication section through the interpreter's
        memoized path (identical hit/miss counters and trace events)."""
        cache = self._caches.get(sid)
        if cache is None:
            cache = self._caches[sid] = {}
        return self.interp._comm_entry(cache, arr, raw)

    write_entry = staticmethod(Interpreter._write_entry)

    def consumer(self, arr: FArray, view: Optional[np.ndarray],
                 slices: tuple):
        """Broadcast consume callback writing through a cached entry."""
        write = Interpreter._write_entry
        return lambda data: write(arr, view, slices, data)

    # -- remapping ---------------------------------------------------------

    def remap_y(self, arr: FArray, specs, origin: str):
        new = Distribution.from_specs(list(specs), arr.bounds,
                                      self.ctx.nprocs)
        yield from remap_array_y(self.ctx, arr, new, origin=origin)

    def mark(self, arr: FArray, specs) -> None:
        mark_array(arr, Distribution.from_specs(list(specs), arr.bounds,
                                                self.ctx.nprocs))

    # -- observability -----------------------------------------------------

    def emit_print(self, values) -> None:
        self.interp.print_values(values)

    def trace_vec(self, t0: float, unit: str, var: str, n: int,
                  ops: int) -> None:
        """The vectorized-block trace event, identical in kind and
        fields to the interpreter's (tools must not care which path
        executed the block)."""
        ctx = self.ctx
        self.tracer.rank_event(
            ctx.rank, "interp.vec", t0, dur=ctx.clock_estimate() - t0,
            unit=unit, var=var, n=n, ops=ops,
        )

    # -- calls -------------------------------------------------------------

    def _enter(self, name: str, fr: Frame, args: list):
        """Callee frame plus the call-overhead charge, exactly as
        :meth:`Interpreter._call_procedure` binds them."""
        unit = self.interp.program.unit(name)
        callee = self.interp._make_frame(unit, args, fr)
        self.ctx.compute(3 + len(args))  # call overhead
        return unit, callee

    @staticmethod
    def _copy_out(unit, fr: Frame, callee: Frame,
                  var_actuals: tuple) -> None:
        for formal, actual in zip(unit.formals, var_actuals):
            if actual is not None and actual not in fr.arrays:
                if formal in callee.scalars:
                    fr.scalars[actual] = callee.scalars[formal]

    def call(self, name: str, fr: Frame, args: list,
             var_actuals: tuple) -> Frame:
        """CALL of a procedure that never blocks: identical frame
        binding, call-overhead charge, and scalar copy-out to the
        interpreter.  Dispatches to the callee's generated body when
        one exists, else to the interpreter."""
        unit, callee = self._enter(name, fr, args)
        fn = self.mod.units.get(name)
        if fn is not None:
            fn(self, callee)
        else:
            self.interp._exec_unit(unit, callee)
        self._copy_out(unit, fr, callee, var_actuals)
        return callee

    def call_y(self, name: str, fr: Frame, args: list, var_actuals: tuple):
        """CALL of a procedure that may suspend (a generator, like the
        callee's generated body)."""
        unit, callee = self._enter(name, fr, args)
        fn = self.mod.units.get(name)
        if fn is not None:
            yield from fn(self, callee)
        else:
            yield from self.interp._exec_unit_y(unit, callee)
        self._copy_out(unit, fr, callee, var_actuals)
        return callee

    def fcall(self, name: str, fr: Frame, args: list, var_actuals: tuple):
        """Reference to a FUNCTION that never blocks, in an expression."""
        return _result(self.call(name, fr, args, var_actuals), name)

    def fcall_y(self, name: str, fr: Frame, args: list,
                var_actuals: tuple):
        """Reference to a communicating FUNCTION, in an expression of a
        generated generator: ``(yield from rt.fcall_y(...))``."""
        callee = yield from self.call_y(name, fr, args, var_actuals)
        return _result(callee, name)

    # -- entry points ------------------------------------------------------

    def run(self):
        """Same as :meth:`run_y`."""
        # a distinct method, not an alias: perfbench/layers.py wraps
        # NodeRt.run and NodeRt.run_y one by one
        return self.run_y()

    def run_y(self):
        """Execute the main program; a generator, the form the
        simulator drives — it yields exactly where the interpreter's
        :meth:`~Interpreter.run_events` would."""
        interp = self.interp
        main = interp.program.main
        frame = interp._make_frame(main, [], None)
        fn = self.mod.units.get(main.name)
        try:
            if main.name not in self.mod.blocking:
                # a main that never blocks runs straight through
                if fn is not None:
                    fn(self, frame)
                else:
                    interp._exec_unit(main, frame)
            elif fn is not None:
                yield from fn(self, frame)
            else:
                yield from interp._exec_unit_y(main, frame)
        except _Stop:
            pass
        return frame
