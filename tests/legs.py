"""Execution legs for the suites that once ran per scheduler backend.

The simulator has one backend, the event core
(:mod:`repro.machine.event`), and one node-program shape: generator
coroutines.  What still varies is the order in which the calendar
dispatches runnable ranks, so there are two legs:

* ``event``     — ``(clock, rank)`` order, the default;
* ``perturbed`` — a seeded-random order (:func:`perturbed_dispatch`).

The suites keep the parametrize ids they carried while they ran once per
backend, so their test ids stay stable: ``event`` is the ``event`` leg,
``coop`` and ``threads`` are the ``perturbed`` leg with two different
seeds (:data:`LEG_SEEDS`).

Every leg must produce bit-identical arrays, clocks and statistics.
Link contention is the one exception: its arrival times depend on send
order by design, so perturbed legs use the uniform topology only.
"""

from __future__ import annotations

import heapq
import random
from contextlib import contextmanager
from typing import Iterator

from repro.machine.event import (
    S_BLOCKED_COLL,
    S_BLOCKED_RECV,
    S_READY,
    EventScheduler,
)

LEGS = ("coop", "threads", "event")

#: dispatch-order seed of each perturbed leg id
LEG_SEEDS = {"coop": 11, "threads": 1}


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
def leg(name: str) -> Iterator[None]:
    """Run the body under the leg that id *name* names (see the module
    docstring)."""
    if name not in LEGS:
        raise ValueError(f"unknown leg {name!r}")
    if name == "event":
        yield
        return
    with perturbed_dispatch(LEG_SEEDS[name]):
        yield
