"""A communicating FUNCTION referenced inside an expression.

``s = dot(x, n) + 1.0`` where ``dot`` sums a BLOCK-distributed ``x``:
the callee communicates (run-time resolution fetches each element from
its owner), so the caller's expression has to suspend mid-evaluation.
A generator cannot yield from inside an expression closure, so
``run_spmd`` detects such programs statically and runs them as plain
callables on fibers.  Every mode must match the sequential reference,
on the interpreter and on generated code.
"""

from __future__ import annotations

import pytest

from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.interp.interpreter import (
    InterpError,
    Interpreter,
    blocking_expr_call,
    find_blocking_units,
    needs_fibers,
    run_sequential,
)
from repro.lang import parse
from repro.machine import FREE, Machine

SRC = """
program main
real x(16)
parameter (n = 16)
distribute x(block)
do i = 1, n
  x(i) = i * 0.5
enddo
s = dot(x, n) + 1.0
end

real function dot(x, n)
real x(n)
integer n
dot = 0.0
do i = 1, n
  dot = dot + x(i)
enddo
end
"""


@pytest.mark.parametrize("codegen", [False, True], ids=["interp", "codegen"])
@pytest.mark.parametrize("mode", [Mode.INTER, Mode.INTRA, Mode.RTR],
                         ids=["inter", "intra", "rtr"])
def test_matches_sequential(mode, codegen):
    want = run_sequential(parse(SRC)).scalars["s"]
    cp = compile_program(SRC, Options(nprocs=4, mode=mode))
    res = cp.run(codegen=codegen, timeout_s=30.0)
    assert [fr.scalars["s"] for fr in res.frames] == [want] * 4
    # the function really communicates: every rank needs every element
    assert res.stats.collectives + res.stats.messages > 0


def test_static_detection():
    program = compile_program(SRC, Options(nprocs=4, mode=Mode.RTR)).program
    blocking = find_blocking_units(program)
    assert blocking == {"main", "dot"}
    assert blocking_expr_call(program.unit("main"), blocking) == "dot"
    assert blocking_expr_call(program.unit("dot"), blocking) is None
    assert needs_fibers(program)
    # a sequential program has nothing that blocks
    assert not needs_fibers(parse(SRC))


def test_generator_compilation_refuses():
    """Driving the yielding form directly is a clear compile-time
    error, never a silent wrong answer."""
    program = compile_program(SRC, Options(nprocs=4, mode=Mode.RTR)).program
    errors = []

    def node(ctx):
        try:
            yield from Interpreter(program, ctx=ctx).run_events()
        except InterpError as e:
            errors.append(str(e))

    Machine(4, FREE).run(node)
    assert len(errors) == 4
    assert "'dot' communicates" in errors[0]
