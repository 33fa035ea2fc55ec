"""Structured deadlock diagnosis for the simulated machine.

The event core (:mod:`repro.machine.event`) declares a deadlock the
moment it becomes true: the calendar of runnable ranks is empty while
some rank is still blocked — on a matched receive nobody will satisfy,
or inside a collective a peer already left.  This module holds the rank
states and the :class:`DeadlockReport` built from them, carried on the
raised :class:`~repro.machine.network.DeadlockError`.

The wall-clock timeout remains as a safety net (configurable via
``REPRO_SIM_TIMEOUT`` / ``Machine(timeout_s=...)``), but every ordinary
deadlock — a receive nobody matches, mismatched barrier membership, a
tag mismatch — is reported immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: rank states, as they appear in a report
READY = "ready"
RUNNING = "running"
BLOCKED_RECV = "blocked-recv"
BLOCKED_COLLECTIVE = "blocked-collective"
FINISHED = "finished"
FAILED = "failed"


@dataclass
class RankWait:
    """One rank's state at the moment a deadlock was declared."""

    rank: int
    state: str
    #: for ``blocked-recv``: the awaited ``(src, tag)``; for
    #: ``blocked-collective``: the collective label (e.g. "barrier")
    awaiting: object = None
    clock: float = 0.0

    def describe(self) -> str:
        if self.state == BLOCKED_RECV:
            src, tag = self.awaiting
            what = f"recv(src={src}, tag={tag})"
        elif self.state == BLOCKED_COLLECTIVE:
            what = f"collective({self.awaiting})"
        else:
            what = self.state
        return f"rank {self.rank}: {what} at clock {self.clock:.3f} µs"


@dataclass
class DeadlockReport:
    """Structured diagnosis attached to a deadlock's SimulationError."""

    waits: list[RankWait] = field(default_factory=list)
    #: per-rank pending queue summary: rank -> [((src, tag), count)]
    pending: dict[int, list[tuple[tuple[int, int], int]]] = field(
        default_factory=dict
    )
    reason: str = ""

    @property
    def blocked_ranks(self) -> list[int]:
        return [w.rank for w in self.waits
                if w.state in (BLOCKED_RECV, BLOCKED_COLLECTIVE)]

    @property
    def awaited(self) -> dict[int, object]:
        """rank -> awaited (src, tag) key or collective label."""
        return {w.rank: w.awaiting for w in self.waits
                if w.state in (BLOCKED_RECV, BLOCKED_COLLECTIVE)}

    def describe(self) -> str:
        lines = [self.reason or "deadlock among blocked ranks"]
        for w in self.waits:
            lines.append("  " + w.describe())
        for rank, keys in sorted(self.pending.items()):
            if keys:
                summary = ", ".join(
                    f"(src={s}, tag={t})x{n}" for (s, t), n in keys
                )
                lines.append(f"  rank {rank} pending: {summary}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def build_report(states, details, clocks, pending_of=None) -> DeadlockReport:
    """Assemble a :class:`DeadlockReport` from per-rank state arrays.

    The report holds a ``waits`` snapshot of every rank, the ``pending``
    summaries (*pending_of* maps a rank to its queued-but-unmatched
    keys) and a one-line ``reason``.
    """
    rep = DeadlockReport()
    nprocs = len(states)
    for r in range(nprocs):
        rep.waits.append(RankWait(r, states[r], details[r], clocks[r]))
    if pending_of is not None:
        for r in range(nprocs):
            keys = pending_of(r)
            if keys:
                rep.pending[r] = keys
    blocked = [r for r, s in enumerate(states)
               if s in (BLOCKED_RECV, BLOCKED_COLLECTIVE)]
    gone = [r for r, s in enumerate(states) if s in (FINISHED, FAILED)]
    recv_waiters = [r for r in blocked if states[r] == BLOCKED_RECV]
    if recv_waiters:
        keys = ", ".join(
            f"rank {r} <- (src={details[r][0]}, "
            f"tag={details[r][1]})" for r in recv_waiters
        )
        rep.reason = (
            f"every live rank is blocked and no in-flight message "
            f"matches any awaited key ({keys})"
        )
    else:
        rep.reason = (
            f"ranks {blocked} wait in a collective that ranks "
            f"{gone} already left"
        )
    return rep
