"""The simulator's event core: rank state machine + calendar heap.

Virtual time is dataflow-determined — a receive completes at ``max(own
clock, sender arrival)``, a collective at ``max(clocks) + tree cost`` —
so any dispatch order that respects the blocking structure produces
bit-identical results.  The core therefore runs exactly **one** rank at
a time, on the calling thread:

* rank state is a structure of arrays — a numpy ``float64`` clock
  vector and an ``int8`` state-code vector, plus a plain list of
  pending-op descriptors — instead of per-rank objects with dicts;
* the run queue is a calendar: a binary heap of ``(virtual clock,
  rank)`` entries.  A rank is pushed exactly when it becomes READY and
  popped exactly once, so dispatch follows smallest ``(clock, rank)``
  and the heap never holds stale entries outside teardown;
* node programs are Python **generator coroutines**: they ``yield``
  only at a genuine blocking point — a receive with an empty queue, a
  collective they are not the last to enter — and a context switch is
  one ``gen.send(None)``.  The interpreter and the generated node
  programs (:meth:`repro.interp.interpreter.Interpreter.run_events`,
  :meth:`repro.codegen.runtime.NodeRt.run_y`) lower every procedure
  that may block to a generator, also when the blocking point sits
  inside an expression (a communicating FUNCTION); the core starts no
  thread;
* there are no locks in the data path — plain dicts and lists, because
  there is never a second runner to race with — and a collective
  completes in a **single rendezvous**: the last arrival computes
  ``max(clocks)``, runs the completion (rank-ordered reduction,
  broadcast consumption, exchange table snapshot), puts every waiter
  back on the calendar, and keeps running;
* deadlock is a native state — the heap is empty while some rank is
  still blocked — reported through a
  :class:`~repro.machine.deadlock.DeadlockReport`;
* fault plans need no special handling: every ``FaultPlan`` decision is
  a pure function of message identity and virtual time, never of
  dispatch order.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Any, Callable, Generator, Optional

import numpy as np

from .costmodel import CostModel
from .deadlock import (
    BLOCKED_COLLECTIVE,
    BLOCKED_RECV,
    FAILED,
    FINISHED,
    READY,
    RUNNING,
    DeadlockReport,
    build_report,
)
from .faults import FaultPlan
from .machine import ProcContext
from .network import (
    AbortError,
    DeadlockError,
    SimulationError,
    _Message,
    arrival_time,
    combine_reduction,
    resolve_timeout,
)
from .stats import RunStats
from .topology import LinkClock, Topology, UniformTopology

#: dispatches between wall-clock deadline probes in the event loop —
#: small enough that a ping-pong livelock dies within a fraction of a
#: second of the deadline, large enough that time.monotonic() never
#: shows up in profiles
_CHECK_EVERY = 256

#: int8 state codes for the structure-of-arrays rank state
S_READY = 0
S_RUNNING = 1
S_BLOCKED_RECV = 2
S_BLOCKED_COLL = 3
S_FINISHED = 4
S_FAILED = 5

#: code -> the deadlock module's string states (report parity)
_STATE_NAMES = {
    S_READY: READY,
    S_RUNNING: RUNNING,
    S_BLOCKED_RECV: BLOCKED_RECV,
    S_BLOCKED_COLL: BLOCKED_COLLECTIVE,
    S_FINISHED: FINISHED,
    S_FAILED: FAILED,
}


class EventScheduler:
    """The event loop: SoA rank state, the calendar heap, dispatch.

    :class:`EventNetwork` and :class:`EventCollectives` drive the state
    transitions (``fail`` / ``failure_error`` / ``block_recv`` /
    ``unblock_recv`` / ``block_collective`` / ``release_collective`` /
    ``finish``).  Blocking *registers* the state and returns; the
    caller's generator then yields, and :meth:`run_ranks` resumes it
    when the rank is pushed back onto the heap.
    """

    def __init__(self, nprocs: int, timeout_s: Optional[float] = None,
                 tracer: Any = None, metrics: Any = None) -> None:
        self.nprocs = nprocs
        self.timeout_s = resolve_timeout(timeout_s)
        self.tracer = tracer
        self.metrics = metrics
        #: structure-of-arrays rank state
        self.clocks = np.zeros(nprocs, dtype=np.float64)
        self.states = np.full(nprocs, S_READY, dtype=np.int8)
        #: pending-op descriptor per rank: the awaited (src, tag) key or
        #: the collective label, None while runnable
        self._detail: list[object] = [None] * nprocs
        self._heap: list[tuple[float, int]] = []
        self.report: Optional[DeadlockReport] = None
        self.failed = False
        self.network: Optional["EventNetwork"] = None  # set by Machine
        self.dispatches = 0
        self.switches = 0

    # -- failure surface ---------------------------------------------------

    def fail(self) -> None:
        """A rank errored: blocked ranks become dispatchable and raise
        when resumed (sequential, deterministic teardown)."""
        if self.failed:
            return
        self.failed = True
        self._push_blocked()

    def failure_error(self, fallback: SimulationError) -> SimulationError:
        """The error a torn-down rank raises: the deadlock diagnosis if
        one was declared, the secondary abort otherwise."""
        if self.report is not None:
            return DeadlockError(
                f"deadlock: {self.report.reason}\n{self.report.describe()}",
                self.report,
            )
        return fallback

    def _push_blocked(self) -> None:
        """Teardown: every blocked rank re-enters the calendar so its
        coroutine is resumed (and raises) in deterministic order."""
        for r in range(self.nprocs):
            if self.states[r] in (S_BLOCKED_RECV, S_BLOCKED_COLL):
                heapq.heappush(self._heap, (float(self.clocks[r]), r))

    def _snapshot(self) -> DeadlockReport:
        pending = self.network.pending_summary if self.network else None
        states = [_STATE_NAMES[int(s)] for s in self.states]
        clocks = [float(c) for c in self.clocks]
        return build_report(states, self._detail, clocks,
                            pending_of=pending)

    def _declare_deadlock(self) -> None:
        """The heap ran empty with ranks still blocked: the event-loop
        native deadlock state.  Declared once."""
        if self.failed or self.report is not None:
            return
        if not any(int(s) in (S_BLOCKED_RECV, S_BLOCKED_COLL)
                   for s in self.states):
            return  # everyone finished: normal termination
        self.report = self._snapshot()
        self.failed = True
        self._push_blocked()

    # -- state transitions (called by EventNetwork / EventCollectives) ----

    def block_recv(self, rank: int, key: tuple[int, int],
                   clock: float) -> None:
        """Register the blocked state; the caller's generator yields."""
        self.states[rank] = S_BLOCKED_RECV
        self._detail[rank] = key
        self.clocks[rank] = clock
        if self.metrics is not None:
            self.metrics.block_recv.inc()
        if self.tracer is not None:
            self.tracer.rank_event(
                rank, "sched.block", clock, why="recv",
                src=key[0], tag=key[1],
            )

    def block_collective(self, rank: int, label: str, clock: float) -> None:
        self.states[rank] = S_BLOCKED_COLL
        self._detail[rank] = label
        self.clocks[rank] = clock
        if self.metrics is not None:
            self.metrics.block_coll.inc()
        if self.tracer is not None:
            self.tracer.rank_event(
                rank, "sched.block", clock, why="collective", label=label,
            )

    def unblock_recv(self, dst: int, key: tuple[int, int]) -> None:
        """A send matched *dst*'s awaited key: back onto the calendar."""
        if self.states[dst] == S_BLOCKED_RECV and self._detail[dst] == key:
            self.states[dst] = S_READY
            self._detail[dst] = None
            heapq.heappush(self._heap, (float(self.clocks[dst]), dst))
            if self.tracer is not None:
                self.tracer.rank_event(
                    dst, "sched.unblock", float(self.clocks[dst]),
                    why="recv", src=key[0], tag=key[1],
                )

    def release_collective(self) -> None:
        """The last participant arrived: all waiters re-enter the
        calendar (batched delivery — one heap push per waiter, no
        thread wakeups)."""
        for r in range(self.nprocs):
            if self.states[r] == S_BLOCKED_COLL:
                self.states[r] = S_READY
                self._detail[r] = None
                heapq.heappush(self._heap, (float(self.clocks[r]), r))
                if self.tracer is not None:
                    self.tracer.rank_event(
                        r, "sched.unblock", float(self.clocks[r]),
                        why="collective",
                    )

    def finish(self, rank: int, clock: float, failed: bool = False) -> None:
        """Rank left its node program (called from the runner's
        ``finally``); the loop pops the next entry, and a deadlock this
        finish exposes is declared when the heap runs dry."""
        self.states[rank] = S_FAILED if failed else S_FINISHED
        self._detail[rank] = None
        self.clocks[rank] = clock

    def _teardown(self, coros: list[Any]) -> None:
        """Resume every live coroutine once so it observes the failure
        and exits — the same drain a declared deadlock gets from the
        main loop, run eagerly here so every rank's runner records its
        failure and finish before the raise.  Every live rank sits at a
        yield inside a communication op and raises on the resume; the
        loop is bounded defensively anyway."""
        self.fail()
        for _ in range(4 * self.nprocs):
            r = self._pop_runnable()
            if r is None:
                return
            self.states[r] = S_RUNNING
            try:
                coros[r].send(None)
            except StopIteration:
                continue
            except Exception:  # pragma: no cover - defensive
                continue
            # yielded again before observing the failure: one more pass
            heapq.heappush(self._heap, (float(self.clocks[r]), r))

    # -- the event loop ----------------------------------------------------

    def _pop_runnable(self) -> Optional[int]:
        """The runnable rank with the smallest ``(clock, rank)``.  No
        simulated result may depend on this order (link contention
        aside): the test suite swaps in a seeded-random pop to check."""
        heap = self._heap
        states = self.states
        failed = self.failed
        while heap:
            _t, r = heapq.heappop(heap)
            s = states[r]
            if s == S_READY or (
                failed and s in (S_BLOCKED_RECV, S_BLOCKED_COLL)
            ):
                return r
            # stale teardown entry (rank finished meanwhile): skip
        return None

    def run_ranks(self, coros: list[Any]) -> None:
        """Drive every rank coroutine to completion.

        ``coros[r].send(None)`` resumes rank *r* until it blocks
        (returns) or finishes (raises StopIteration — the runner
        wrapper has already recorded results/errors and called
        :meth:`finish` by then).
        """
        heap = self._heap
        for r in range(self.nprocs):
            heapq.heappush(heap, (0.0, r))
        tracer = self.tracer
        # Wall-clock safety net (REPRO_SIM_TIMEOUT): the calendar loop
        # runs on the calling thread, so a runaway program that keeps
        # generating events forever — e.g. one rank ping-ponging
        # messages while another stays blocked — never parks anywhere a
        # per-wait timeout could fire.  Check the deadline periodically
        # (every _CHECK_EVERY dispatches: cheap relative to one
        # gen.send) and tear the run down with a DeadlockError.
        deadline = time.monotonic() + self.timeout_s
        unchecked = 0
        while True:
            r = self._pop_runnable()
            if r is None:
                self._declare_deadlock()  # refills the heap on deadlock
                if not heap:
                    break
                continue
            unchecked += 1
            if unchecked >= _CHECK_EVERY:
                unchecked = 0
                if time.monotonic() > deadline:
                    # snapshot the rank states *before* teardown mutates
                    # them: the report feeds the postmortem bundle
                    if self.report is None:
                        self.report = self._snapshot()
                    self._teardown(coros)
                    raise DeadlockError(
                        f"deadlock: wall-clock timeout: event loop "
                        f"still dispatching after {self.timeout_s:.1f}s "
                        f"({self.dispatches} dispatches; runaway node "
                        f"program or REPRO_SIM_TIMEOUT too low)",
                        self.report,
                    )
            self.dispatches += 1
            self.states[r] = S_RUNNING
            if tracer is not None:
                tracer.rank_event(r, "sched.dispatch", float(self.clocks[r]))
            try:
                coros[r].send(None)
            except StopIteration:
                continue
            self.switches += 1
            if self.states[r] == S_RUNNING:  # pragma: no cover - defensive
                raise SimulationError(
                    f"rank {r} yielded without blocking"
                )


class EventNetwork:
    """Point-to-point interconnect.

    Each destination keeps its in-flight messages in a dict keyed on
    ``(src, tag)`` with a FIFO deque per key, so a matched receive is an
    O(1) dict probe plus a ``deque.popleft``.  ``send`` is non-blocking
    (enqueue + ready the receiver).  The receive side is split:
    :meth:`try_recv` performs the non-blocking match, and the blocking
    loop (retry / register-blocked / yield) lives in
    :meth:`EventProcContext.recv_y` where it can suspend.
    """

    def __init__(
        self,
        nprocs: int,
        cost: CostModel,
        stats: RunStats,
        timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        scheduler: Optional[EventScheduler] = None,
        tracer: Any = None,
        topology: Optional[Topology] = None,
        metrics: Any = None,
    ) -> None:
        self.nprocs = nprocs
        self.cost = cost
        self.stats = stats
        self.timeout_s = resolve_timeout(timeout_s)
        self.faults = faults
        self.sched = scheduler
        self.tracer = tracer
        self.metrics = metrics
        self.topo = topology if topology is not None \
            else UniformTopology(nprocs)
        self._links = LinkClock() if self.topo.contention else None
        self._queues: list[dict[tuple[int, int], deque[_Message]]] = [
            {} for _ in range(nprocs)
        ]
        #: per-(src, dst, tag) sequence numbers for deterministic fault
        #: identity
        self._seq: dict[tuple[int, int, int], int] = {}

    def send(
        self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
        now: float, origin: Optional[str] = None,
    ) -> float:
        """Deliver a message; returns the sender's clock after the send."""
        if self.sched.failed:
            raise self.sched.failure_error(AbortError(
                f"processor {src} aborted before send to {dst}"
            ))
        if not (0 <= dst < self.nprocs):
            raise SimulationError(f"send to invalid processor {dst}")
        if dst == src:
            raise SimulationError(f"processor {src} sending to itself")
        sender_after = now + self.cost.send_cost(nbytes)
        available = arrival_time(self.topo, self._links, self.cost,
                                 src, dst, nbytes, now)
        if self.faults is not None and self.faults.affects_messages:
            seqkey = (src, dst, tag)
            seq = self._seq.get(seqkey, 0)
            self._seq[seqkey] = seq + 1
            extra, retries = self.faults.message_faults(src, dst, tag, seq)
            if extra or retries:
                available += extra
                self.stats.record_fault(retries)
                if self.tracer is not None:
                    self.tracer.rank_event(
                        src, "fault", now, dst=dst, tag=tag,
                        delay=extra, retries=retries,
                    )
        if self.tracer is not None:
            if self.topo.is_uniform:
                self.tracer.rank_event(
                    src, "net.send", now, dst=dst, tag=tag, bytes=nbytes,
                    avail=available, origin=origin,
                )
            else:
                self.tracer.rank_event(
                    src, "net.send", now, dst=dst, tag=tag, bytes=nbytes,
                    avail=available, origin=origin,
                    hops=self.topo.hops(src, dst),
                )
        key = (src, tag)
        q = self._queues[dst].get(key)
        if q is None:
            q = self._queues[dst][key] = deque()
        q.append(_Message(src, tag, payload, nbytes, available,
                          sent_at=now, origin=origin))
        self.sched.unblock_recv(dst, key)
        self.stats.record_message(nbytes)
        return sender_after

    def try_recv(self, dst: int, src: int, tag: int, now: float,
                 origin: Optional[str] = None
                 ) -> Optional[tuple[Any, float]]:
        """Non-blocking matched receive: ``(payload, new clock)`` when a
        message is deliverable, None otherwise."""
        if not (0 <= src < self.nprocs):
            raise SimulationError(f"recv from invalid processor {src}")
        key = (src, tag)
        queues = self._queues[dst]
        q = queues.get(key)
        if not q:
            return None
        m = q.popleft()
        if not q:
            del queues[key]
        arrive = max(now, m.available_at)
        t = arrive + self.cost.recv_cost(m.nbytes)
        if self.metrics is not None:
            self.metrics.recv_blocked.observe(
                max(0.0, m.available_at - now)
            )
        if self.tracer is not None:
            self.tracer.rank_event(
                dst, "net.recv", now, dur=t - now, src=m.src,
                tag=tag, bytes=m.nbytes, sent_at=m.sent_at,
                avail=m.available_at,
                wait=max(0.0, m.available_at - now),
                origin=origin or m.origin,
            )
        return m.payload, t

    def pending_summary(
        self, dst: int
    ) -> list[tuple[tuple[int, int], int]]:
        """[(key, count)] of undelivered messages queued at *dst*."""
        return sorted(
            (key, len(q)) for key, q in self._queues[dst].items() if q
        )


class EventCollectives:
    """Single-rendezvous collectives as generators.

    Every participant deposits its contribution; a non-last arrival
    registers its blocked state and ``yield``s, and the last arrival runs
    the completion — ``max(clocks)``, the rank-ordered reduction /
    broadcast consumption / exchange snapshot, the stats — puts everyone
    back on the calendar, and keeps going.  The shared result slots are
    overwrite-safe without synchronization: the *next* collective cannot
    complete until every rank has re-entered it, which means every rank
    has already read the previous result.
    """

    def __init__(self, nprocs: int, cost: CostModel, stats: RunStats,
                 scheduler: EventScheduler, tracer: Any = None,
                 topology: Optional[Topology] = None,
                 metrics: Any = None) -> None:
        self.nprocs = nprocs
        self.cost = cost
        self.stats = stats
        self.sched = scheduler
        self.tracer = tracer
        self.metrics = metrics
        self.topo = topology if topology is not None \
            else UniformTopology(nprocs)
        self._slots: dict[str, Any] = {}
        self._clocks = [0.0] * nprocs
        self._arrived = 0
        self._maxclock = 0.0
        #: straggler rank (trace-only), overwrite-safe like ``_result``
        self._maxrank = 0
        self._result: Any = None

    def _observe_coll(self, now: float) -> None:
        """Metrics: virtual µs this participant waited for the
        rendezvous to complete (call after the rendezvous returns)."""
        self.metrics.coll_blocked.observe(max(0.0, self._maxclock - now))

    def _trace_coll(self, rank: int, label: str, now: float, t: float,
                    nbytes: int = 0, origin: Optional[str] = None) -> None:
        """Record one participant's rendezvous span (after the
        rendezvous returns, so ``_maxclock``/``_maxrank`` describe
        *this* op)."""
        self.tracer.rank_event(
            rank, "coll", now, dur=t - now, label=label, bytes=nbytes,
            maxclock=self._maxclock, maxrank=self._maxrank, origin=origin,
        )

    # -- slot/completion builders ------------------------------------------

    def _begin_bcast(self, rank: int, root: int, payload: Any, nbytes: int,
                     consume: Any) -> Callable[[], Any]:
        """*consume* callbacks all run inside the completion, before any
        participant resumes — so the root may pass a zero-copy view of
        its own array and still mutate it freely afterwards."""
        slot = self._slots.setdefault("bcast", {"consume": []})
        if rank == root:
            slot["data"] = payload
            slot["nbytes"] = nbytes
        if consume is not None:
            slot["consume"].append(consume)

        def complete() -> Any:
            s = self._slots.pop("bcast")
            data = s["data"]
            for fn in s["consume"]:
                fn(data)
            self.stats.record_collective(s["nbytes"])
            return data

        return complete

    def _begin_reduce(self, rank: int, value: Any, op: str,
                      nbytes: int) -> Callable[[], Any]:
        """Contributions combine in rank order, so floating-point
        reductions are deterministic whatever the arrival order."""
        self._slots.setdefault("reduce", {})[rank] = value

        def complete() -> Any:
            table = self._slots.pop("reduce")
            values = [table[r] for r in range(self.nprocs)]
            result = combine_reduction(op, values)
            self.stats.record_collective(nbytes * self.nprocs)
            return result

        return complete

    def _begin_exchange(self, rank: int, outgoing: dict[int, Any],
                        nbytes_out: int) -> Callable[[], Any]:
        """All-to-all personalized exchange (the remap runtime).  The
        pairwise transfers are real traffic, recorded once into the
        point-to-point message/byte counts."""
        self._slots.setdefault("exchange", {})[rank] = (outgoing, nbytes_out)

        def complete() -> Any:
            table = self._slots.pop("exchange")
            nmsgs = sum(len(msgs) for msgs, _nb in table.values())
            nbytes = sum(nb for _msgs, nb in table.values())
            if nmsgs:
                self.stats.record_exchange(nmsgs, nbytes)
            return table

        return complete

    def _incoming_of(self, rank: int) -> dict[int, Any]:
        """Extract *rank*'s incoming payloads from an exchange result."""
        table = self._result
        return {
            src: msgs[rank]
            for src, (msgs, _nb) in table.items()
            if rank in msgs
        }

    # -- the generator ops -------------------------------------------------

    def _rendezvous_y(self, rank: int, label: str, now: float,
                      complete: Callable[[], Any]
                      ) -> Generator[None, None, None]:
        if self.sched.failed:
            raise self.sched.failure_error(AbortError(
                f"processor {rank} aborted inside collective {label!r} "
                f"(a peer failed or deadlocked)"
            ))
        self._clocks[rank] = now
        self._arrived += 1
        if self._arrived == self.nprocs:
            self._arrived = 0
            self._maxclock = max(self._clocks)
            if self.tracer is not None:
                self._maxrank = min(
                    r for r in range(self.nprocs)
                    if self._clocks[r] == self._maxclock
                )
            self._result = complete()
            self.sched.release_collective()
        else:
            self.sched.block_collective(rank, label, now)
            yield
            if self.sched.failed:
                raise self.sched.failure_error(AbortError(
                    f"processor {rank} aborted inside collective "
                    f"{label!r} (a peer failed or deadlocked)"
                ))

    def broadcast_y(self, rank: int, root: int, payload: Any, nbytes: int,
                    now: float, consume: Any = None,
                    origin: Optional[str] = None
                    ) -> Generator[None, None, tuple[Any, float]]:
        complete = self._begin_bcast(rank, root, payload, nbytes, consume)
        yield from self._rendezvous_y(rank, "bcast", now, complete)
        if self.metrics is not None:
            self._observe_coll(now)
        t = self._maxclock + self.topo.collective_cost(
            self.cost, self.nprocs, nbytes
        )
        if self.tracer is not None:
            self._trace_coll(rank, "bcast", now, t, nbytes, origin)
        return self._result, t

    def allreduce_y(self, rank: int, value: Any, op: str, nbytes: int,
                    now: float, origin: Optional[str] = None
                    ) -> Generator[None, None, tuple[Any, float]]:
        complete = self._begin_reduce(rank, value, op, nbytes)
        yield from self._rendezvous_y(rank, "reduce", now, complete)
        if self.metrics is not None:
            self._observe_coll(now)
        t = self._maxclock + 2 * self.topo.collective_cost(
            self.cost, self.nprocs, nbytes
        )
        if self.tracer is not None:
            self._trace_coll(rank, "reduce", now, t, nbytes, origin)
        return self._result, t

    def barrier_y(self, rank: int, now: float,
                  origin: Optional[str] = None
                  ) -> Generator[None, None, float]:
        yield from self._rendezvous_y(rank, "barrier", now, lambda: None)
        if self.metrics is not None:
            self._observe_coll(now)
        t = self._maxclock + self.topo.barrier_cost(self.cost, self.nprocs)
        if self.tracer is not None:
            self._trace_coll(rank, "barrier", now, t, 0, origin)
        return t

    def exchange_y(self, rank: int, outgoing: dict[int, Any],
                   nbytes_out: int, now: float,
                   origin: Optional[str] = None
                   ) -> Generator[None, None, tuple[dict[int, Any], float]]:
        complete = self._begin_exchange(rank, outgoing, nbytes_out)
        yield from self._rendezvous_y(rank, "exchange", now, complete)
        if self.metrics is not None:
            self._observe_coll(now)
        incoming = self._incoming_of(rank)
        t = self._maxclock + self.topo.collective_cost(
            self.cost, self.nprocs, max(nbytes_out, 1)
        )
        if self.tracer is not None:
            self._trace_coll(rank, "exchange", now, t, nbytes_out, origin)
            per_pair = nbytes_out / max(1, len(outgoing))
            for dst in sorted(outgoing):
                self.tracer.rank_event(
                    rank, "net.exchange", now, dst=dst, bytes=per_pair,
                    origin=origin,
                )
        return incoming, t


class EventProcContext(ProcContext):
    """Node-processor context: the blocking communication ops.

    :class:`~repro.machine.machine.ProcContext` holds the clock, the
    compute charges, and the non-blocking ``send``; this subclass adds
    the ops that may suspend.  Each is a generator (``recv_y`` /
    ``broadcast_y`` / ``allreduce_y`` / ``barrier_y`` / ``exchange_y``)
    that ``yield``s while blocked; node programs drive them with
    ``yield from``.
    """

    # -- generator communication ops ---------------------------------------

    def recv_y(self, src: int, tag: int, origin: Optional[str] = None
               ) -> Generator[None, None, Any]:
        self._maybe_crash()
        net = self.machine.network
        sched = self.machine._sched
        rank = self.rank
        now = self.clock
        while True:
            got = net.try_recv(rank, src, tag, now, origin=origin)
            if got is not None:
                payload, t = got
                self.clock = t
                return payload
            if sched.failed:
                raise sched.failure_error(AbortError(
                    f"processor {rank} aborted while waiting for "
                    f"(src={src}, tag={tag})"
                ))
            sched.block_recv(rank, (src, tag), now)
            yield
            if sched.failed:
                raise sched.failure_error(AbortError(
                    f"processor {rank} aborted while waiting for "
                    f"(src={src}, tag={tag})"
                ))

    def broadcast_y(self, root: int, payload: Any, nbytes: int,
                    consume: Any = None, origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        self._maybe_crash()
        data, t = yield from self.machine.collectives.broadcast_y(
            self.rank, root, payload, nbytes, self.clock, consume=consume,
            origin=origin
        )
        self.clock = t
        return data

    def allreduce_y(self, value: Any, op: str, nbytes: int = 8,
                    origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        self._maybe_crash()
        result, t = yield from self.machine.collectives.allreduce_y(
            self.rank, value, op, nbytes, self.clock, origin=origin
        )
        self.clock = t
        return result

    def barrier_y(self, origin: Optional[str] = None
                  ) -> Generator[None, None, None]:
        self._maybe_crash()
        self.clock = yield from self.machine.collectives.barrier_y(
            self.rank, self.clock, origin=origin
        )

    def exchange_y(self, outgoing: dict[int, Any], nbytes_out: int,
                   origin: Optional[str] = None
                   ) -> Generator[None, None, dict[int, Any]]:
        self._maybe_crash()
        incoming, t = yield from self.machine.collectives.exchange_y(
            self.rank, outgoing, nbytes_out, self.clock, origin=origin
        )
        self.clock = t
        return incoming
