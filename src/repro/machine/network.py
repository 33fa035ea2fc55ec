"""Message-passing primitives shared by the simulated machine.

Point-to-point messages carry a payload plus the virtual time at which
they become available at the receiver (sender clock at send + latency +
bandwidth term).  A matched receive pairs on ``(src, tag)`` and advances
the receiver's clock to ``max(own clock, arrival time)``.  The network
and collectives themselves live in :mod:`repro.machine.event`; this
module holds what they share with the rest of the package: the error
types, the wall-clock safety-net timeout (``REPRO_SIM_TIMEOUT``, default
60 s; deadlocks are declared instantly, long before it fires), the
message record, arrival-time arithmetic, and rank-ordered reduction.

A :class:`~repro.machine.faults.FaultPlan` may inject per-message delay
jitter and drops-with-retransmit; both only move virtual arrival times
(delivery itself is reliable), so results and message/byte counts are
unchanged by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

from .costmodel import CostModel
from .deadlock import DeadlockReport
from .topology import LinkClock, Topology

DEFAULT_TIMEOUT_S = 60.0


def resolve_timeout(timeout_s: Optional[float]) -> float:
    """Explicit value, else ``REPRO_SIM_TIMEOUT``, else 60 s."""
    if timeout_s is not None:
        return timeout_s
    env = os.environ.get("REPRO_SIM_TIMEOUT", "").strip()
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return DEFAULT_TIMEOUT_S


class SimulationError(Exception):
    """Deadlock or protocol error inside the simulated machine."""

    report: Optional[DeadlockReport] = None


class DeadlockError(SimulationError):
    """Deadlock detected; ``report`` carries the structured diagnosis."""

    def __init__(self, msg: str, report: Optional[DeadlockReport] = None):
        super().__init__(msg)
        self.report = report


class AbortError(SimulationError):
    """Secondary failure: this rank was torn down because another rank
    failed first (the primary error is re-raised by ``Machine.run``)."""


def combine_reduction(op: str, values: list) -> Any:
    """Combine allreduce contributions, already ordered by rank — NOT by
    arrival order — so floating-point reductions are deterministic."""
    if op == "sum":
        return sum(values)
    if op == "max":
        return max(values)
    if op == "min":
        return min(values)
    if op == "maxloc":
        # values are (magnitude, index) pairs; ties break to the
        # smallest index for determinism
        return max(values, key=lambda p: (p[0], -p[1]))
    raise SimulationError(f"unknown reduction {op!r}")


def arrival_time(
    topo: Topology, links: Optional[LinkClock], cost: CostModel,
    src: int, dst: int, nbytes: int, now: float,
) -> float:
    """Virtual time a message posted at *now* becomes available at
    *dst*.  With link contention enabled the message's head is routed
    over the topology's link path (serializing against earlier
    traffic), otherwise the closed-form latency applies."""
    if links is not None:
        return links.traverse(
            topo.link_path(src, dst), now + cost.alpha,
            cost.beta * nbytes, cost.hop,
        )
    return now + topo.transfer_time(cost, nbytes, src, dst)


@dataclass
class _Message:
    src: int
    tag: int
    payload: Any
    nbytes: int
    available_at: float  # virtual µs
    #: sender's clock when the send was posted (trace provenance: the
    #: critical-path walk jumps to the sender at this time)
    sent_at: float = 0.0
    #: source-program statement that emitted the send, when tracing
    origin: Optional[str] = None
