"""Experiment [simulation core, event core]: scaling to large P.

Not a paper figure — this measures the simulator itself.  The event
core runs generator node programs as coroutines resumed off a (virtual
clock, rank) heap, on the calling thread, so per-rank cost is an
event-loop iteration and stays flat as P grows — which is what makes
P=1024-16384 experiments practical.

Two series land in ``BENCH_simcore_event.json``:

* a machine-level ring microbenchmark (send/recv/compute per round, no
  interpreter) at P = 64/256/1024/4096 — this isolates scheduling cost
  and reports wall-seconds-per-rank and events/sec;
* two paper applications (1-D stencil relaxation and the wave
  equation) driven through the full compile-and-interpret pipeline at
  P = 64 and P = 1024 — the "completes at P=1024" criterion.

The shape assertions: every app completes at P=1024, the per-rank cost
of the ring stays flat along the ladder, and dispatch accounting is
meaningful.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.apps.stencil import stencil1d_source
from repro.apps.wave import wave_source
from repro.core import Mode, Options, compile_program
from repro.machine import IPSC860, Machine

from _harness import emit_bench

MICRO_PROCS = [64, 256, 1024, 4096]
MICRO_ROUNDS = 50
APP_P_LARGE = 1024
APP_P_SMALL = 64
APP_STEPS = 8


def _ring(P: int, rounds: int = MICRO_ROUNDS):
    """Nearest-neighbour ring: one send, one recv, a little compute per
    round, as a generator node program."""

    def ring(ctx):
        right = (ctx.rank + 1) % P
        left = (ctx.rank - 1) % P
        for r in range(rounds):
            ctx.send(right, r, ctx.rank, 8)
            yield from ctx.recv_y(left, r)
            ctx.compute(10)
        return ctx.rank

    return ring


def _run_micro(P: int) -> dict:
    m = Machine(P, IPSC860, timeout_s=900.0)
    t0 = time.perf_counter()
    results = m.run(_ring(P))
    wall = time.perf_counter() - t0
    assert results == list(range(P))
    s = m.stats
    return {
        "wall_s": wall,
        "wall_per_rank_us": wall / P * 1e6,
        "dispatches": s.dispatches,
        "events_per_s": s.dispatches / wall if wall > 0 else 0.0,
        "sim_time_us": s.time_us,
        "messages": s.messages,
    }


def _run_app(src: str, P: int, arr: str) -> dict:
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
    t0 = time.perf_counter()
    res = cp.run(cost=IPSC860, timeout_s=900.0)
    wall = time.perf_counter() - t0
    g = res.gathered(arr)
    return {
        "wall_s": wall,
        "wall_per_rank_ms": wall / P * 1e3,
        "sim_time_us": res.stats.time_us,
        "messages": res.stats.messages,
        "checksum": float(g.sum()),
        "stats": res.stats,
    }


@pytest.fixture(scope="module")
def micro():
    return {P: _run_micro(P) for P in MICRO_PROCS}


@pytest.fixture(scope="module")
def apps():
    out = {}
    for app, mksrc, arr in (
        ("stencil", lambda P: stencil1d_source(4 * P, APP_STEPS), "x"),
        ("wave", lambda P: wave_source(4 * P, APP_STEPS), "u"),
    ):
        for P in (APP_P_SMALL, APP_P_LARGE):
            out[(app, P)] = _run_app(mksrc(P), P, arr)
    return out


def test_bench_simcore_event(benchmark, micro, apps, paper_table):
    benchmark.pedantic(lambda: _run_micro(256), rounds=2, iterations=1)
    rows = []
    payload = {
        "scheduler": "event",
        "cpu_count": os.cpu_count(),
        "micro": {"rounds": MICRO_ROUNDS, "series": {}},
        "apps": {},
        "ratios": {},
    }
    for P in MICRO_PROCS:
        e = micro[P]
        payload["micro"]["series"][str(P)] = e
        rows.append(
            f"ring     P={P:<5} {e['wall_per_rank_us']:>7.0f}us/rank "
            f"events/s={e['events_per_s']:>9.0f}"
        )
    lo, hi = MICRO_PROCS[0], MICRO_PROCS[-1]
    payload["ratios"][f"ring_per_rank_P{hi}_over_P{lo}"] = (
        micro[hi]["wall_per_rank_us"] / micro[lo]["wall_per_rank_us"]
    )
    for (app, P), m in sorted(apps.items()):
        entry = dict(m)
        entry["stats"] = m["stats"].as_dict()
        payload["apps"][f"{app}_P{P}"] = entry
        rows.append(
            f"{app:<8} P={P:<5} wall={m['wall_s']:>7.2f}s "
            f"per-rank={m['wall_per_rank_ms']:>6.2f}ms "
            f"msgs={m['messages']}"
        )
    emit_bench("simcore_event", payload)
    paper_table(
        f"Event-driven core: ring microbenchmark ({MICRO_ROUNDS} rounds) "
        f"and paper apps at P={APP_P_LARGE}",
        "series   cfg     measurements",
        rows,
    )
    benchmark.extra_info.update({
        k: round(v, 3) for k, v in payload["ratios"].items()
    })


class TestShape:
    def test_apps_complete_at_p1024(self, apps):
        """The headline capability: the event core finishes the full
        compile-and-interpret pipeline for two paper apps at P=1024."""
        for app in ("stencil", "wave"):
            m = apps[(app, APP_P_LARGE)]
            assert m["stats"].nprocs == APP_P_LARGE
            assert m["stats"].scheduler == "event"
            assert m["messages"] > 0

    def test_event_flat_per_rank(self, micro):
        """Per-rank cost of generator programs must not grow with P —
        that flatness is the entire point of the design."""
        lo = micro[MICRO_PROCS[0]]["wall_per_rank_us"]
        hi = micro[MICRO_PROCS[-1]]["wall_per_rank_us"]
        assert hi <= 3.0 * lo, (lo, hi)

    def test_event_dispatch_accounting(self, micro):
        """Every rank is dispatched at least once and events/sec is
        meaningful (dispatches scale with blocking points)."""
        for P in MICRO_PROCS:
            e = micro[P]
            assert e["dispatches"] >= P
            assert e["events_per_s"] > 0
