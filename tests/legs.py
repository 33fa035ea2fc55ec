"""Execution legs for the suites that once ran per scheduler backend.

The simulator has one backend, the event core
(:mod:`repro.machine.event`).  It carries node programs in two shapes —
generator coroutines, or plain callables parked on fibers (the shape
``run_spmd`` falls back to when a communicating FUNCTION is referenced
inside an expression) — and its calendar can be popped in ``(clock,
rank)`` order or, under :func:`perturbed_dispatch`, in a seeded-random
order.  Suites that used to run once per backend keep three legs, each
named after the retired backend whose coverage it took over:

* ``event``   — generator node programs, ``(clock, rank)`` order;
* ``coop``    — plain callables on fibers, ``(clock, rank)`` order;
* ``threads`` — plain callables on fibers, seeded-random dispatch
  order (the thread backend's arbitrary interleavings, reproducible).

Every leg must produce bit-identical arrays, clocks and statistics.
Link contention is the one exception: its arrival times depend on send
order by design, so perturbed legs use the uniform topology only.
"""

from __future__ import annotations

import heapq
import random
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator

import repro.interp.interpreter as interpreter
from repro.machine.event import (
    S_BLOCKED_COLL,
    S_BLOCKED_RECV,
    S_READY,
    EventScheduler,
)

LEGS = ("coop", "threads", "event")


@contextmanager
def _patched(owner, attr: str, value) -> Iterator[None]:
    orig = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


@contextmanager
def recorded_dispatch() -> Iterator[list[int]]:
    """Record the ranks the calendar dispatches, in order, without
    changing the order."""
    order: list[int] = []
    pop = EventScheduler._pop_runnable

    def recording_pop(self):
        r = pop(self)
        if r is not None:
            order.append(r)
        return r

    with _patched(EventScheduler, "_pop_runnable", recording_pop):
        yield order


@contextmanager
def perturbed_dispatch(seed: int) -> Iterator[list[int]]:
    """Pop a seeded-random runnable heap entry instead of the ``(clock,
    rank)`` minimum; yields the list of dispatched ranks, in order."""
    rng = random.Random(seed)
    order: list[int] = []

    def random_pop(self):
        heap = self._heap
        while heap:
            i = rng.randrange(len(heap))
            heap[i], heap[-1] = heap[-1], heap[i]
            _t, r = heap.pop()
            heapq.heapify(heap)
            s = self.states[r]
            if s == S_READY or (
                self.failed and s in (S_BLOCKED_RECV, S_BLOCKED_COLL)
            ):
                order.append(r)
                return r
        return None

    with _patched(EventScheduler, "_pop_runnable", random_pop):
        yield order


@contextmanager
def fiber_programs() -> Iterator[None]:
    """Make ``run_spmd`` run every program as plain callables on fibers
    (the path it otherwise takes only for communicating functions
    inside expressions)."""
    with _patched(interpreter, "needs_fibers", lambda program: True):
        yield


@contextmanager
def leg(name: str, seed: int = 1) -> Iterator[None]:
    """Run the body under execution leg *name* (see the module
    docstring); *seed* drives the ``threads`` leg's dispatch order."""
    if name not in LEGS:
        raise ValueError(f"unknown leg {name!r}")
    with ExitStack() as stack:
        if name != "event":
            stack.enter_context(fiber_programs())
        if name == "threads":
            stack.enter_context(perturbed_dispatch(seed))
        yield


def node_program(gen_fn: Callable, name: str) -> Callable:
    """*gen_fn* (a generator node program) in leg *name*'s shape: as is
    for ``event``, else a plain callable that drives it on its fiber."""
    if name == "event":
        return gen_fn

    def plain(ctx):
        return ctx._drive(gen_fn(ctx))

    return plain
