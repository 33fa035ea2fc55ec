"""The simulated MIMD distributed-memory machine.

A :class:`Machine` runs the same node program (SPMD) on every simulated
processor; each node sees a processor context — its rank, virtual
clock, and communication primitives.  One backend drives the node
programs: the event core (:mod:`repro.machine.event`), which runs one
rank at a time off a ``(virtual clock, rank)`` calendar.  Exceptions on
any node abort the whole run: the remaining ranks are torn down at
their next network operation and the *first* failure by virtual time is
re-raised on the caller's thread (secondary teardown aborts never shadow
the primary error).

Resilience hooks:

* ``faults=`` — a :class:`~repro.machine.faults.FaultPlan` injecting
  deterministic delay jitter, drops-with-retransmit, per-rank compute
  slowdowns, and crash-at-clock faults (``REPRO_FAULTS`` when unset);
* ``timeout_s=`` — the wall-clock safety-net timeout
  (``REPRO_SIM_TIMEOUT`` when unset; deadlocks are normally declared
  instantly, long before this fires).
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Optional

from .costmodel import CostModel, IPSC860
from .deadlock import DeadlockReport
from .faults import FaultPlan
from .network import AbortError, SimulationError
from .stats import RunStats
from .topology import Topology, resolve_topology
from ..obs import resolve_trace
from ..obs.flightrec import (
    FlightRecorder,
    dump_postmortem,
    flightrec_capacity,
)
from ..obs.metrics import SimMetrics, resolve_metrics

#: the simulator's one backend (reported in RunStats, traces, metrics)
BACKEND = "event"


class ProcContext:
    """One node processor: rank, virtual clock, and the non-blocking ops.

    The ops that may suspend the rank (receives and collectives) live on
    the subclass :class:`~repro.machine.event.EventProcContext`, the
    context every rank of a :class:`Machine` run gets.

    Compute charges (``compute``/``loop_tick``/``guard_tick``) are
    *batched*: they accumulate exact integer counters and convert to
    virtual time only when the clock is observed (a communication call,
    a direct ``ctx.clock`` read, end of run).  Between observation
    points only the counter totals matter, so the scalar interpreter
    path (one ``compute`` per statement instance) and the vectorized
    block path (one ``compute`` per loop nest) produce bit-identical
    clocks, work counts, and guard statistics.  Batching also removes a
    stats-lock acquisition per guard — a measurable win for run-time
    resolution, which executes one guard per array element.
    """

    def __init__(self, rank: int, machine: "Machine") -> None:
        self.rank = rank
        self.machine = machine
        self._clock = 0.0  # virtual µs (flushed)
        self._work = 0.0   # scalar operations executed (flushed)
        self.cost = machine.cost
        # pending (unflushed) charges — exact counts, not times
        self._ops = 0        # compute ops
        self._loops = 0      # loop iterations
        self._guard_ops = 0  # guard condition ops
        self._guards = 0     # guard evaluations (for RunStats)
        # fault-injection state for this rank
        f = machine.faults
        self._slow = f.rank_slowdown(rank) if f is not None else 1.0
        self._crash_at = f.crash_clock(rank) if f is not None else None

    @property
    def nprocs(self) -> int:
        return self.machine.nprocs

    @property
    def stats(self) -> RunStats:
        return self.machine.stats

    # -- virtual clock -------------------------------------------------------

    def _flush(self) -> None:
        """Convert pending charges to time in a fixed order (the order is
        part of the bit-for-bit contract between execution paths)."""
        if self._ops:
            self._clock += self._ops * self.cost.flop * self._slow
            self._work += self._ops
            self._ops = 0
        if self._loops:
            self._clock += self._loops * self.cost.loop_overhead * self._slow
            self._loops = 0
        if self._guard_ops:
            self._clock += self._guard_ops * self.cost.flop * self._slow
            self._guard_ops = 0
        if self._guards:
            self.stats.record_guards(self._guards)
            self._guards = 0

    def _maybe_crash(self) -> None:
        """Injected crash-at-clock fault, checked at communication
        points (so a crash surfaces within one virtual exchange)."""
        if self._crash_at is None:
            return
        self._flush()
        if self._clock >= self._crash_at:
            at = self._crash_at
            self._crash_at = None
            raise SimulationError(
                f"injected crash: rank {self.rank} failed at virtual "
                f"clock {self._clock:.3f} µs (crash scheduled at {at:g})"
            )

    def clock_estimate(self) -> float:
        """The clock a flush *would* produce, without performing one.

        Trace instrumentation must use this instead of ``clock``: an
        actual flush at a trace point would change the floating-point
        summation order of the batched charges and perturb the
        simulation, breaking the traced-vs-untraced bit-identity
        contract.  Mirrors the additive order of :meth:`_flush`.
        """
        t = self._clock
        if self._ops:
            t += self._ops * self.cost.flop * self._slow
        if self._loops:
            t += self._loops * self.cost.loop_overhead * self._slow
        if self._guard_ops:
            t += self._guard_ops * self.cost.flop * self._slow
        return t

    @property
    def tracer(self):
        return self.machine.tracer

    @property
    def clock(self) -> float:
        self._flush()
        return self._clock

    @clock.setter
    def clock(self, value: float) -> None:
        self._flush()
        self._clock = value

    @property
    def work(self) -> float:
        self._flush()
        return self._work

    # -- computation --------------------------------------------------------

    def compute(self, ops: float) -> None:
        """Charge *ops* scalar operations (batched)."""
        self._ops += ops

    def loop_tick(self, iters: int = 1) -> None:
        self._loops += iters

    def guard_tick(self, ops: float = 1.0, count: int = 1) -> None:
        self._guard_ops += ops
        self._guards += count

    # -- communication -------------------------------------------------------

    def send(self, dst: int, tag: int, payload: Any, nbytes: int,
             origin: Optional[str] = None) -> None:
        self._maybe_crash()
        self.clock = self.machine.network.send(
            self.rank, dst, tag, payload, nbytes, self.clock, origin=origin
        )


class Machine:
    """P simulated node processors plus network and collectives.

    The node programs run on the event core
    (:mod:`repro.machine.event`): one rank executes at a time,
    dispatched in deterministic ``(virtual clock, rank)`` order off a
    calendar heap.  Generator node programs run as coroutines; plain
    callables are carried on fibers with identical semantics.  Virtual
    time is dataflow-determined, so results, clocks, and message/byte
    statistics do not depend on the dispatch order
    (``tests/test_scheduler_differential.py`` perturbs it to check).

    The interconnect defaults to the uniform linear cost model; pass
    ``topology=`` (a name like ``"hypercube"`` / ``"torus2d:contention"``
    or a :class:`~repro.machine.topology.Topology` instance, or set
    ``REPRO_TOPOLOGY``) for hop-aware latencies, topology-shaped
    collective trees, and optional deterministic link contention.

    ``scheduler=`` is accepted for compatibility only: None or
    ``"event"``, the one backend.
    """

    def __init__(
        self,
        nprocs: int,
        cost: CostModel = IPSC860,
        timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        scheduler: Optional[str] = None,
        trace: Any = None,
        topology: Any = None,
        metrics: Any = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("need at least one processor")
        self.nprocs = nprocs
        self.cost = cost
        self.faults = faults if faults is not None else FaultPlan.from_env()
        if scheduler not in (None, BACKEND):
            raise ValueError(
                f"unknown scheduler {scheduler!r}: the event core is the "
                f"only simulator backend"
            )
        self.scheduler = BACKEND
        self.topology: Topology = resolve_topology(topology, nprocs)
        self.stats = RunStats(nprocs=nprocs, scheduler=self.scheduler,
                              topology=self.topology.describe())
        #: the tracer the caller asked for (None for untraced runs —
        #: SPMDResult.trace mirrors this, never the flight recorder)
        self.user_tracer = resolve_trace(trace)
        self.tracer = self.user_tracer
        self.flightrec: Optional[FlightRecorder] = None
        if self.tracer is None and trace is not False:
            # always-on flight recorder: a bounded ring of recent
            # events per rank, so a run that dies leaves a postmortem
            # even though nobody requested a trace (REPRO_FLIGHTREC=0
            # disables, a number resizes the rings)
            cap = flightrec_capacity()
            if cap > 0:
                self.flightrec = FlightRecorder(nprocs, capacity=cap)
                self.tracer = self.flightrec
        self.metrics = resolve_metrics(metrics)
        self.sim_metrics: Optional[SimMetrics] = (
            None if self.metrics is None
            else SimMetrics(self.metrics, backend=self.scheduler,
                            topology=self.topology.describe())
        )
        if self.tracer is not None:
            self.tracer.ensure_ranks(nprocs)
            self.tracer.meta.update(
                nprocs=nprocs, scheduler=self.scheduler, cost=str(cost),
            )
            if not self.topology.is_uniform:
                self.tracer.meta["topology"] = self.topology.describe()
            if self.faults is not None:
                self.tracer.meta["faults"] = str(self.faults)
        # deferred: repro.machine.event subclasses ProcContext from here
        from .event import EventCollectives, EventNetwork, EventScheduler

        self._sched = EventScheduler(nprocs, timeout_s, tracer=self.tracer,
                                     metrics=self.sim_metrics)
        self.network = EventNetwork(
            nprocs, cost, self.stats, timeout_s,
            faults=self.faults, scheduler=self._sched,
            tracer=self.tracer, topology=self.topology,
            metrics=self.sim_metrics,
        )
        self.collectives = EventCollectives(
            nprocs, cost, self.stats, self._sched, tracer=self.tracer,
            topology=self.topology, metrics=self.sim_metrics,
        )
        self._sched.network = self.network

    @property
    def deadlock_report(self) -> Optional[DeadlockReport]:
        return self._sched.report

    def run(self, node_program: Callable[[ProcContext], Any]) -> list[Any]:
        """Run *node_program* on every node; returns per-rank results.

        *node_program* is either one callable shared by every rank or a
        sequence of per-rank callables (e.g. generated node programs,
        which differ per rank class).  Generator functions run as rank
        coroutines; plain callables run on fibers.  On failure the
        remaining ranks are aborted at their next network operation and
        the first error *by virtual time* is re-raised (teardown aborts
        are only raised when no primary error exists).
        """
        t0 = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            return self._run(node_program)
        except SimulationError as e:
            failure = e
            raise
        finally:
            self.stats.record_run(
                self.scheduler, time.perf_counter() - t0,
                dispatches=self._sched.dispatches,
                switches=self._sched.switches,
            )
            if self.sim_metrics is not None:
                self.sim_metrics.record_run(self.stats,
                                            failed=failure is not None)
                self.stats.record_metrics(self.metrics.snapshot())
            if failure is not None:
                # postmortem bundle (REPRO_POSTMORTEM_DIR; best-effort,
                # never masks the error being raised)
                dump_postmortem(
                    "simulation-error",
                    error=failure,
                    report=getattr(failure, "report", None)
                    or self.deadlock_report,
                    stats=self.stats,
                    recorder=self.tracer,
                    metrics=self.metrics,
                    extra={
                        "nprocs": self.nprocs,
                        "scheduler": self.scheduler,
                        "topology": self.topology.describe(),
                    },
                )

    def _run(self, node_program: Callable[[ProcContext], Any]) -> list[Any]:
        from .event import EventProcContext, _FiberCoroutine, \
            is_event_coroutine

        contexts = [EventProcContext(r, self) for r in range(self.nprocs)]
        if isinstance(node_program, (list, tuple)):
            if len(node_program) != self.nprocs:
                raise ValueError(
                    f"need {self.nprocs} node programs, "
                    f"got {len(node_program)}"
                )
            programs = list(node_program)
        else:
            programs = [node_program] * self.nprocs
        results: list[Any] = [None] * self.nprocs
        #: (secondary, clock, rank, exc, tb) per failed rank
        errors: list[tuple[bool, float, int, BaseException, str]] = []
        sched = self._sched

        def record_failure(ctx: ProcContext, e: BaseException) -> None:
            errors.append(
                (isinstance(e, AbortError), ctx.clock, ctx.rank, e,
                 traceback.format_exc())
            )
            sched.fail()

        def finish(ctx: ProcContext, failed: bool) -> None:
            self.stats.record_proc_time(ctx.rank, ctx.clock)
            self.stats.record_proc_work(ctx.rank, ctx.work)
            # a finished/failed rank may leave peers unwakeable: the
            # event loop declares that deadlock when its heap runs dry
            sched.finish(ctx.rank, ctx.clock, failed=failed)

        if is_event_coroutine(programs[0]):
            def runner_gen(ctx: ProcContext):
                failed = False
                try:
                    results[ctx.rank] = yield from programs[ctx.rank](ctx)
                except BaseException as e:  # noqa: BLE001 - reported
                    failed = True
                    record_failure(ctx, e)
                finally:
                    finish(ctx, failed)

            coros: list[Any] = [runner_gen(c) for c in contexts]
        else:
            def runner(ctx: ProcContext) -> None:
                failed = False
                try:
                    results[ctx.rank] = programs[ctx.rank](ctx)
                except BaseException as e:  # noqa: BLE001 - reported
                    failed = True
                    record_failure(ctx, e)
                finally:
                    finish(ctx, failed)

            coros = []
            for c in contexts:
                fiber = _FiberCoroutine(
                    (lambda c=c: runner(c)), name=f"node-{c.rank}",
                    timeout_s=self.network.timeout_s,
                )
                c._fiber = fiber
                coros.append(fiber)
        sched.run_ranks(coros)
        return self._raise_or_results(errors, results)

    def _raise_or_results(
        self,
        errors: list[tuple[bool, float, int, BaseException, str]],
        results: list[Any],
    ) -> list[Any]:
        if errors:
            # primary failures (real errors, deadlock declarations)
            # outrank secondary teardown aborts; ties break on virtual
            # time then rank, so the report is deterministic
            errors.sort(key=lambda e: (e[0], e[1], e[2]))
            _secondary, _clock, rank, exc, tb = errors[0]
            report = getattr(exc, "report", None)
            if isinstance(exc, SimulationError):
                err = SimulationError(f"[node {rank}] {exc}")
                err.report = report
                raise err from exc
            err = SimulationError(f"node {rank} failed: {exc}\n{tb}")
            err.report = report
            raise err from exc
        return results
