"""A communicating FUNCTION referenced inside an expression.

``s = dot(x, n) + 1.0`` where ``dot`` sums a BLOCK-distributed ``x``:
the callee communicates (run-time resolution fetches each element from
its owner), so the caller's expression has to suspend mid-evaluation.
Both lowerings make such an expression a generator — the interpreter's
yielding compilation and the generated ``(yield from rt.fcall_y(...))``
— so the program runs as a generator node program like any other.
Every position an expression can take is covered (assignment, IF and
DO WHILE conditions, the right operand of ``.and.``, an array
subscript, another function's argument, PRINT); every mode must match
the sequential reference, the interpreter and the generated code must
agree bit for bit, and so must a perturbed dispatch order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.interp.interpreter import (
    Interpreter,
    find_blocking_units,
    run_sequential,
    stmt_may_block,
)
from repro.lang import parse
from repro.machine import FREE, Machine

from .legs import perturbed_dispatch

#: x(i) = i/2 on a BLOCK distribution; dot(x, n) = 68, ipos(x, n) = 11
#: (ipos communicates through dot: a communicating call nested in a
#: communicating call)
PRELUDE = """
program main
real x(16)
real y(16)
parameter (n = 16)
distribute x(block)
do i = 1, n
  x(i) = i * 0.5
  y(i) = 0.0
enddo
s = 0.0
k = 0
"""

FUNCTIONS = """
real function dot(x, n)
real x(n)
integer n
dot = 0.0
do i = 1, n
  dot = dot + x(i)
enddo
end

integer function ipos(x, n)
real x(n)
integer n
ipos = int(dot(x, n)) / 6
end

real function twice(v)
real v
twice = 2.0 * v
end
"""

BODIES = {
    "assign": "s = dot(x, n) + 1.0\n",
    "if-cond": """
if (dot(x, n) .gt. 10.0) then
  s = 1.0
else
  s = 2.0
endif
""",
    "while-cond": """
do while (dot(x, n) .gt. k * 10.0)
  k = k + 1
enddo
s = k
""",
    "and-right": """
if (n .gt. 0 .and. dot(x, n) .gt. 1.0) then
  s = s + 1.0
endif
if (n .lt. 0 .and. dot(x, n) .gt. 1.0) then
  s = s + 10.0
endif
""",
    "subscript": """
y(ipos(x, n)) = 5.0
s = y(ipos(x, n)) + 1.0
""",
    "nested-arg": "s = twice(dot(x, n)) + 1.0\n",
    "do-bound": """
do j = 1, ipos(x, n)
  k = k + j
enddo
s = k
print *, 'k', dot(x, n)
""",
}


def source(case: str) -> str:
    return PRELUDE + BODIES[case] + "end\n" + FUNCTIONS


#: the original single-case source (``s = dot(x, n) + 1.0``)
SRC = source("assign")

STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)
MODES = [Mode.INTER, Mode.INTRA, Mode.RTR]
MODE_IDS = ["inter", "intra", "rtr"]


def _assert_identical(a, b, label):
    assert a.stats.proc_times == b.stats.proc_times, label
    for f in STAT_FIELDS:
        assert getattr(a.stats, f) == getattr(b.stats, f), (label, f)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.scalars == fb.scalars, label
        for name in fa.arrays:
            assert np.array_equal(fa.arrays[name].data,
                                  fb.arrays[name].data), (label, name)
    assert sorted(a.prints) == sorted(b.prints), label


@pytest.mark.parametrize("codegen", [False, True], ids=["interp", "codegen"])
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_matches_sequential(mode, codegen):
    want = run_sequential(parse(SRC)).scalars["s"]
    cp = compile_program(SRC, Options(nprocs=4, mode=mode))
    res = cp.run(codegen=codegen, timeout_s=30.0)
    assert [fr.scalars["s"] for fr in res.frames] == [want] * 4
    # the function really communicates: every rank needs every element
    assert res.stats.collectives + res.stats.messages > 0


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("case", sorted(BODIES))
def test_every_position(case, mode):
    """Sequential reference, interpreter vs generated code, and a
    perturbed dispatch order, for a communicating function in each
    expression position."""
    src = source(case)
    seq = run_sequential(parse(src))
    cp = compile_program(src, Options(nprocs=4, mode=mode))
    interp = cp.run(codegen=False, timeout_s=30.0)
    for fr in interp.frames:
        assert fr.scalars["s"] == seq.scalars["s"], case
        assert fr.scalars["k"] == seq.scalars["k"], case
        assert np.array_equal(fr.arrays["y"].data,
                              seq.arrays["y"].data), case
    assert interp.stats.collectives + interp.stats.messages > 0
    gen = cp.run(codegen=True, timeout_s=30.0)
    _assert_identical(interp, gen, f"{case} codegen")
    for seed in (1, 2):
        for codegen in (False, True):
            with perturbed_dispatch(seed) as order:
                res = cp.run(codegen=codegen, timeout_s=30.0)
            assert order, "perturbed dispatch never ran"
            _assert_identical(interp, res,
                              f"{case} seed={seed} codegen={codegen}")


def test_short_circuit_skips_the_call():
    """``.and.`` with a false left operand never evaluates the right:
    the second IF of the ``and-right`` case adds no traffic."""
    cp = compile_program(source("and-right"),
                         Options(nprocs=4, mode=Mode.RTR))
    once = compile_program(
        PRELUDE + BODIES["and-right"].split("endif", 1)[0] + "endif\nend\n"
        + FUNCTIONS, Options(nprocs=4, mode=Mode.RTR),
    )
    for codegen in (False, True):
        a = cp.run(codegen=codegen, timeout_s=30.0)
        b = once.run(codegen=codegen, timeout_s=30.0)
        assert a.stats.messages == b.stats.messages
        assert a.stats.collectives == b.stats.collectives


def test_static_detection():
    program = compile_program(SRC, Options(nprocs=4, mode=Mode.RTR)).program
    blocking = find_blocking_units(program)
    assert blocking == {"main", "dot", "ipos"}
    main = program.unit("main")
    flagged = [s for s in main.body if stmt_may_block(s, blocking)]
    assert flagged and all("dot" in repr(s) for s in flagged)
    # a sequential program has nothing that blocks
    seq = parse(SRC)
    assert not any(stmt_may_block(s, find_blocking_units(seq))
                   for u in seq.units for s in u.body)


def test_generator_compilation_runs():
    """``Interpreter.run_events`` drives the program directly — the
    communicating call suspends inside the expression."""
    program = compile_program(SRC, Options(nprocs=4, mode=Mode.RTR)).program
    want = run_sequential(parse(SRC)).scalars["s"]

    def node(ctx):
        frame = yield from Interpreter(program, ctx=ctx).run_events()
        return frame.scalars["s"]

    m = Machine(4, FREE)
    assert m.run(node) == [want] * 4
    assert m.stats.messages + m.stats.collectives > 0


@pytest.mark.xfail(strict=True, reason=(
    "compiler defect: in INTER/INTRA a distributed array read inside an "
    "IF condition of a FUNCTION gets no communication"))
def test_condition_read_inside_function_is_communicated():
    src = PRELUDE + "s = cnt(x, n)\nend\n" + """
real function cnt(x, n)
real x(n)
integer n
cnt = 0.0
do i = 1, n
  if (x(i) .gt. 3.0) cnt = cnt + 1.0
enddo
end
"""
    want = run_sequential(parse(src)).scalars["s"]
    res = compile_program(src, Options(nprocs=4, mode=Mode.INTER)).run(
        timeout_s=30.0)
    assert [fr.scalars["s"] for fr in res.frames] == [want] * 4
