"""Vectorized block execution of compiled loop nests (the fast path).

The closure interpreter dispatches one Python closure per array element,
which bounds how large a problem the simulator can afford.  This module
recognizes innermost ``DO`` loops whose bodies are straight-line affine
array assignments and compiles them to whole-section numpy expressions:
one slice assignment per statement per block instead of one closure call
per element.

Legality (checked at closure-compile time, with residual conditions
checked per block at run time; any failure falls back to the scalar
closure path for that block):

* the body is a non-empty sequence of ``Assign`` statements to array
  elements — no calls, no communication, no control flow, no scalar
  assignments;
* every subscript is ``c``, ``i``, ``i ± c`` or a loop-invariant
  expression, where ``i`` is the loop variable and ``c`` is loop
  invariant; the loop variable appears in exactly one subscript
  position of each reference that uses it;
* right-hand sides use only literals, loop-invariant scalars, the loop
  variable, array references as above, ``+ - * / **`` and unary minus,
  and elementwise-safe intrinsics (``f g abs sqrt min max``) — any
  loop-invariant subexpression without user-function calls is permitted
  wholesale (it is evaluated once per block);
* for every array *written* in the block, all writes share one loop
  axis and (checked at run time) one offset ``w``; every read of that
  array carrying the loop variable sits on the same axis with offset
  ``r == w``, and every loop-invariant read of it indexes outside the
  written range.  Under these rules each iteration touches a distinct
  element and statement order is preserved elementwise, so block
  execution is observationally identical to the sequential loop.

Accounting: the block charges ``loop_tick(n)`` and ``compute(n * ops)``
with the *exact* per-iteration operation counts of the scalar path.
:class:`~repro.machine.machine.ProcContext` batches charges as integer
counters and converts them to virtual time only at observation points,
so clocks, per-processor work, and guard counts are bit-identical
between the scalar and vectorized paths.

``REPRO_VECTORIZE=0`` in the environment forces the scalar path
everywhere (every result stays cross-checkable); the ``vectorize``
keyword of the run helpers overrides the environment per run.
"""

from __future__ import annotations

import operator
import os
from typing import Callable, Optional

import numpy as np

from ..lang import ast as A
from ..runtime.intrinsics import PURE_INTRINSICS, f_func, g_func

#: below this trip count the closure path is cheaper than slice setup
MIN_BLOCK = 4


def enabled(override: Optional[bool] = None) -> bool:
    """The effective vectorization switch: explicit *override* if given,
    else the ``REPRO_VECTORIZE`` environment flag (default on)."""
    if override is not None:
        return bool(override)
    return os.environ.get("REPRO_VECTORIZE", "1").lower() not in (
        "0", "false", "no", "off"
    )


class _Block:
    """One runtime instance of a vectorized loop: bounds, trip count,
    and the lazily built index vector."""

    __slots__ = ("lo", "st", "n", "_iota")

    def __init__(self, lo: int, st: int, n: int) -> None:
        self.lo = lo
        self.st = st
        self.n = n
        self._iota = None

    def iota(self) -> np.ndarray:
        if self._iota is None:
            self._iota = np.arange(
                self.lo, self.lo + self.n * self.st, self.st
            )
        return self._iota


def _mentions(e: A.Expr, v: str) -> bool:
    return any(
        isinstance(x, A.Var) and x.name == v for x in A.walk_exprs(e)
    )


def _is_int(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iu"
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _fortran_div(a, b):
    """Elementwise mirror of the scalar interpreter's ``/``: Fortran
    truncating division when both operands are integral, IEEE division
    otherwise."""
    if _is_int(a) and _is_int(b):
        q = np.abs(a) // np.abs(b)
        return np.where((a >= 0) == (b >= 0), q, -q)
    return a / b


def _fold_minimum(args):
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return out


def _fold_maximum(args):
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return out


#: intrinsics whose numpy application is bit-identical to the scalar
#: interpreter's per-element application (``exp`` is excluded: numpy's
#: SIMD exp is not guaranteed identical to libm's)
_VEC_INTRINSICS: dict[str, Callable] = {
    "f": lambda args: f_func(args[0]),
    "g": lambda args: g_func(args[0]),
    "abs": lambda args: np.abs(args[0]),
    "sqrt": lambda args: np.sqrt(args[0]),
    "min": _fold_minimum,
    "max": _fold_maximum,
}

#: calls that are pure and cost-free in the scalar path, hence safe
#: inside once-per-block invariant subexpressions
_INVARIANT_OK_CALLS = set(PURE_INTRINSICS) | {"myproc", "owner"}

#: operators accepted on loop-carried values, with their elementwise
#: forms (comparisons and logicals never occur in affine assignments)
VEC_BINOPS: dict[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _fortran_div, "**": operator.pow,
}
#: intrinsics accepted on loop-carried values: one-argument ones, and
#: min/max folded over two or more arguments
VEC_UNARY = ("f", "g", "abs", "sqrt")
VEC_FOLDS = ("min", "max")


class Reject(Exception):
    """The loop is not vectorizable."""


class LoopShape:
    """The legality analysis of one DO loop, on the AST alone.

    Shared by the two executors of a vectorized block — the
    interpreter's :class:`_Plan` turns it into closures, the code
    generator (:mod:`repro.codegen.emit`) into source — so both accept
    exactly the same loops with the same runtime checks.  Raises
    :class:`Reject` for a loop outside the rules in the module
    docstring.

    A subscript affine in the loop variable ``i`` has an *offset*:
    ``("zero",)`` for ``i``, ``("pos", c)`` for ``i + c`` / ``c + i``,
    ``("neg", c)`` for ``i - c`` (``c`` loop invariant).
    """

    def __init__(self, do: A.Do) -> None:
        from .interpreter import _count_ops

        self.do = do
        self.v = do.var
        #: written array -> (loop axis, [offset per write])
        self.writes: dict[str, tuple[int, list]] = {}
        #: (array, axis, offset) per read carrying the loop variable
        self.v_reads: list[tuple[str, int, tuple]] = []
        #: (array, subscripts) per loop-invariant array read
        self.inv_reads: list[tuple[str, tuple]] = []
        #: id(ArrayRef) -> (axis, offset) for every classified reference
        self.refs: dict[int, tuple[Optional[int], Optional[tuple]]] = {}
        #: (target, axis, offset, rhs) per statement, in order
        self.stmts: list[tuple[A.ArrayRef, int, tuple, A.Expr]] = []
        self.uses_iota = False
        #: exact per-iteration operation count of the scalar path
        self.ops_per_iter = 0
        if not do.body:
            raise Reject
        for s in do.body:
            if not (isinstance(s, A.Assign)
                    and isinstance(s.target, A.ArrayRef)):
                raise Reject
            target = s.target
            axis, off = self._classify_ref(target)
            if axis is None:
                raise Reject  # loop-invariant write: a cross-iteration race
            prev = self.writes.get(target.name)
            if prev is None:
                self.writes[target.name] = (axis, [off])
            elif prev[0] != axis:
                raise Reject
            else:
                prev[1].append(off)
            self._check_expr(s.expr)
            self.ops_per_iter += _count_ops(s.expr) + 1 + len(target.subs)
            self.stmts.append((target, axis, off, s.expr))
        self._finalize_legality()

    def _invariant(self, e: A.Expr) -> None:
        """A loop-invariant expression the block evaluates once (the
        scalar path evaluates it per iteration, but invariance makes
        the values equal).  User-function calls are rejected — they
        carry per-call cost accounting and may have effects — and
        array reads inside it are recorded for the runtime disjointness
        check."""
        for sub in A.walk_exprs(e):
            if isinstance(sub, A.CallExpr) \
                    and sub.name not in _INVARIANT_OK_CALLS:
                raise Reject
            if isinstance(sub, A.Triplet):
                raise Reject
            if isinstance(sub, A.ArrayRef):
                self.inv_reads.append((sub.name, tuple(sub.subs)))

    def _axis_offset(self, e: A.Expr) -> tuple:
        v = self.v
        if isinstance(e, A.Var) and e.name == v:
            return ("zero",)
        if isinstance(e, A.BinOp) and isinstance(e.left, A.Var) \
                and e.left.name == v and not _mentions(e.right, v):
            if e.op == "+":
                self._invariant(e.right)
                return ("pos", e.right)
            if e.op == "-":
                self._invariant(e.right)
                return ("neg", e.right)
        if isinstance(e, A.BinOp) and e.op == "+" \
                and isinstance(e.right, A.Var) and e.right.name == v \
                and not _mentions(e.left, v):
            self._invariant(e.left)
            return ("pos", e.left)
        raise Reject

    def _classify_ref(self, ref: A.ArrayRef):
        """(axis, offset) of the one subscript mentioning the loop
        variable; (None, None) when the reference is loop-invariant."""
        axis = off = None
        for pos, sub in enumerate(ref.subs):
            if isinstance(sub, A.Triplet):
                raise Reject
            if _mentions(sub, self.v):
                if axis is not None:
                    raise Reject  # two subscripts use the loop variable
                axis = pos
                off = self._axis_offset(sub)
            else:
                self._invariant(sub)
        self.refs[id(ref)] = (axis, off)
        return axis, off

    def _check_expr(self, e: A.Expr) -> None:
        if not _mentions(e, self.v):
            self._invariant(e)
            return
        if isinstance(e, A.Var):  # the loop variable itself
            self.uses_iota = True
            return
        if isinstance(e, A.ArrayRef):
            axis, off = self._classify_ref(e)
            self.v_reads.append((e.name, axis, off))
            return
        if isinstance(e, A.BinOp):
            if e.op not in VEC_BINOPS:
                raise Reject
            self._check_expr(e.left)
            self._check_expr(e.right)
            return
        if isinstance(e, A.UnOp):
            if e.op != "-":
                raise Reject
            self._check_expr(e.operand)
            return
        if isinstance(e, A.CallExpr):
            # user functions: per-call cost + effects
            if not ((e.name in VEC_UNARY and len(e.args) == 1)
                    or (e.name in VEC_FOLDS and len(e.args) >= 2)):
                raise Reject
            for a in e.args:
                self._check_expr(a)
            return
        raise Reject

    def _finalize_legality(self) -> None:
        # reads carrying the loop variable must sit on the write axis of
        # any array the block writes (offset equality checked per block)
        #: (array, offset) per such read of a written array
        self.checked_v_reads: list[tuple[str, tuple]] = []
        for name, axis, off in self.v_reads:
            w = self.writes.get(name)
            if w is None:
                continue
            if axis != w[0]:
                raise Reject
            self.checked_v_reads.append((name, off))
        # invariant reads of written arrays need their index on the
        # write axis for the runtime range check
        #: (array, index expression on the write axis) per such read
        self.checked_inv_reads: list[tuple[str, A.Expr]] = []
        for name, subs in self.inv_reads:
            w = self.writes.get(name)
            if w is None:
                continue
            axis = w[0]
            if axis >= len(subs):
                raise Reject
            self.checked_inv_reads.append((name, subs[axis]))


class _Plan:
    """The interpreter's block executor for one :class:`LoopShape`:
    closures that evaluate each statement over a whole block."""

    def __init__(self, do: A.Do, unit, interp) -> None:
        shape = LoopShape(do)
        self.shape = shape
        self.unit = unit
        self.interp = interp
        self.v = do.var
        self.ops_per_iter = shape.ops_per_iter
        self.execs = [self._make_exec(t, axis, off, rhs)
                      for t, axis, off, rhs in shape.stmts]
        self._write_offs = [
            (name, [self._off_fn(o) for o in offs])
            for name, (_axis, offs) in shape.writes.items()
        ]
        self._checked_v_reads = [
            (name, self._off_fn(off)) for name, off in shape.checked_v_reads
        ]
        self._checked_inv_reads = [
            (name, self._invariant_fn(idx))
            for name, idx in shape.checked_inv_reads
        ]

    def _invariant_fn(self, e: A.Expr) -> Callable:
        return self.interp._compile_expr(e, self.unit)

    def _off_fn(self, off: tuple) -> Callable:
        """Closure of a subscript offset (see :class:`LoopShape`)."""
        if off[0] == "zero":
            return lambda fr: 0
        c = self._invariant_fn(off[1])
        if off[0] == "pos":
            return lambda fr: int(c(fr))
        return lambda fr: -int(c(fr))

    def _sub_items(self, ref: A.ArrayRef, axis: int) -> list:
        return [None if pos == axis else self._invariant_fn(s)
                for pos, s in enumerate(ref.subs)]

    # -- expression compilation --------------------------------------------

    def _compile_expr(self, e: A.Expr) -> Callable:
        """Compile *e* to ``fn(frame, block) -> scalar | ndarray`` with
        values bit-identical to the scalar path's per-element results."""
        if not _mentions(e, self.v):
            fn = self._invariant_fn(e)  # evaluated once per block
            return lambda fr, blk: fn(fr)
        if isinstance(e, A.Var):  # the loop variable itself
            return lambda fr, blk: blk.iota()
        if isinstance(e, A.ArrayRef):
            return self._compile_read(e)
        if isinstance(e, A.BinOp):
            lf = self._compile_expr(e.left)
            rf = self._compile_expr(e.right)
            op = VEC_BINOPS[e.op]
            return lambda fr, blk: op(lf(fr, blk), rf(fr, blk))
        if isinstance(e, A.UnOp):
            of = self._compile_expr(e.operand)
            return lambda fr, blk: -of(fr, blk)
        impl = _VEC_INTRINSICS[e.name]
        arg_fns = [self._compile_expr(a) for a in e.args]
        return lambda fr, blk: impl([f(fr, blk) for f in arg_fns])

    def _compile_read(self, ref: A.ArrayRef) -> Callable:
        name = ref.name
        axis, off = self.shape.refs[id(ref)]
        off_fn = self._off_fn(off)
        sub_items = self._sub_items(ref, axis)

        def read(fr, blk):
            arr = fr.arrays[name]
            sl = _block_slices(arr, blk, axis, int(off_fn(fr)),
                               sub_items, fr)
            return arr.data[sl]

        return read

    def _make_exec(self, target: A.ArrayRef, axis: int, off: tuple,
                   rhs: A.Expr) -> Callable:
        name = target.name
        off_fn = self._off_fn(off)
        sub_items = self._sub_items(target, axis)
        rhs_fn = self._compile_expr(rhs)

        def exec_stmt(fr, blk):
            arr = fr.arrays[name]
            sl = _block_slices(arr, blk, axis, int(off_fn(fr)),
                               sub_items, fr)
            arr.data[sl] = rhs_fn(fr, blk)

        return exec_stmt

    def runtime_ok(self, fr, lo: int, st: int, n: int) -> bool:
        """Per-block residual legality: common write offsets, read
        offsets equal to write offsets, invariant reads outside the
        written index range."""
        woff = {}
        for name, off_fns in self._write_offs:
            w = int(off_fns[0](fr))
            for f in off_fns[1:]:
                if int(f(fr)) != w:
                    return False
            woff[name] = w
        for name, off_fn in self._checked_v_reads:
            if int(off_fn(fr)) != woff[name]:
                return False
        for name, idx_fn in self._checked_inv_reads:
            first = lo + woff[name]
            last = first + (n - 1) * st
            w_lo, w_hi = (first, last) if st > 0 else (last, first)
            if w_lo <= int(idx_fn(fr)) <= w_hi:
                return False
        return True


def _block_slices(arr, blk: _Block, axis: int, off: int,
                  sub_items, fr) -> tuple:
    """Global-index block section -> numpy index tuple (bounds-checked
    at the block endpoints, like the scalar path checks each element)."""
    out = []
    for pos, item in enumerate(sub_items):
        if pos == axis:
            first = blk.lo + off
            last = first + (blk.n - 1) * blk.st
            o_first = arr._offset(pos, first)
            o_last = arr._offset(pos, last)
            stop = o_last + (1 if blk.st > 0 else -1)
            out.append(slice(o_first, stop if stop >= 0 else None, blk.st))
        else:
            out.append(arr._offset(pos, int(item(fr))))
    return tuple(out)


def try_vectorize(do: A.Do, unit, interp, scalar_fallback) -> Optional[Callable]:
    """Attempt to compile *do* to a vectorized block executor.  Returns
    a statement function or ``None`` when the loop is not vectorizable;
    the returned function itself falls back to *scalar_fallback* for
    blocks that fail the residual runtime checks or are too small to
    win."""
    try:
        plan = _Plan(do, unit, interp)
    except Reject:
        return None

    from .interpreter import InterpError

    ctx = interp.ctx
    var = do.var
    lo_fn = interp._compile_expr(do.lo, unit)
    hi_fn = interp._compile_expr(do.hi, unit)
    st_fn = interp._compile_expr(do.step, unit)
    ops_per_iter = plan.ops_per_iter
    unit_name = unit.name

    def run_do_vec(fr):
        lo = int(lo_fn(fr))
        hi = int(hi_fn(fr))
        st = int(st_fn(fr))
        if st == 0:
            raise InterpError(f"{unit_name}: zero DO step")
        n = (hi - lo) // st + 1
        if n <= 0:
            fr.scalars[var] = lo
            return
        if n < MIN_BLOCK or not plan.runtime_ok(fr, lo, st, n):
            scalar_fallback(fr)
            return
        tracer = ctx.tracer if ctx is not None else None
        t0 = ctx.clock_estimate() if tracer is not None else 0.0
        blk = _Block(lo, st, n)
        for exec_stmt in plan.execs:
            exec_stmt(fr, blk)
        if ctx is not None:
            ctx.loop_tick(n)
            ctx.compute(n * ops_per_iter)
        if tracer is not None:
            # virtual span of the block's charges, previewed without
            # flushing (a flush here would perturb the simulation)
            tracer.rank_event(
                ctx.rank, "interp.vec", t0, dur=ctx.clock_estimate() - t0,
                unit=unit_name, var=var, n=n, ops=n * ops_per_iter,
            )
        fr.scalars[var] = lo + n * st

    return run_do_vec
