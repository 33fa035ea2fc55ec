"""Experiment [simulation core, event core]: scaling to large P.

Not a paper figure — this measures the simulator itself.  The event
core runs generator node programs as coroutines resumed off a (virtual
clock, rank) heap, so per-rank cost is an event-loop iteration.  Plain
callable node programs instead ride on fibers — one OS thread (8 MB
stack, two futex hand-offs per blocking point) per simulated rank —
whose per-rank wall time grows with P (thread creation, kernel
run-queue pressure); the generator form's stays flat, which is what
makes P=1024-16384 experiments practical.

Two series land in ``BENCH_simcore_event.json``:

* a machine-level ring microbenchmark (send/recv/compute per round, no
  interpreter) at P = 64/256/1024/4096 in both program forms — this
  isolates scheduling cost and reports wall-seconds-per-rank and
  events/sec;
* two paper applications (1-D stencil relaxation and the wave
  equation) driven through the full compile-and-interpret pipeline at
  P = 1024 as generators — the "completes at P=1024" criterion — with a
  P = 64 fiber/generator comparison point.

The shape assertions are honest about where the win lives: generators
must stay within noise of fibers at P=64, must win at P >= 1024, and
their per-rank cost must stay flat while the fibers' grows.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.apps.stencil import stencil1d_source
from repro.apps.wave import wave_source
import repro.interp.interpreter as interpreter
from repro.core import Mode, Options, compile_program
from repro.machine import IPSC860, Machine

from _harness import emit_bench

MICRO_PROCS = [64, 256, 1024, 4096]
MICRO_ROUNDS = 50
APP_P_LARGE = 1024
APP_P_SMALL = 64
APP_STEPS = 8


def _ring_programs(P: int, rounds: int = MICRO_ROUNDS):
    """Nearest-neighbour ring: one send, one recv, a little compute per
    round.  The plain-callable and generator-coroutine forms below are
    the same program; the event core drives the generator directly
    (zero threads) and carries the plain body on a fiber."""

    def ring(ctx):
        right = (ctx.rank + 1) % P
        left = (ctx.rank - 1) % P
        for r in range(rounds):
            ctx.send(right, r, ctx.rank, 8)
            ctx.recv(left, r)
            ctx.compute(10)
        return ctx.rank

    def ring_y(ctx):
        right = (ctx.rank + 1) % P
        left = (ctx.rank - 1) % P
        for r in range(rounds):
            ctx.send(right, r, ctx.rank, 8)
            yield from ctx.recv_y(left, r)
            ctx.compute(10)
        return ctx.rank

    return ring, ring_y


def _run_micro(P: int, form: str) -> dict:
    ring, ring_y = _ring_programs(P)
    prog = ring_y if form == "generator" else ring
    m = Machine(P, IPSC860, timeout_s=900.0)
    t0 = time.perf_counter()
    results = m.run(prog)
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


def _run_app(src: str, P: int, form: str, arr: str) -> dict:
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
    needs_fibers = interpreter.needs_fibers
    if form == "fiber":
        # what run_spmd does for a communicating function in an
        # expression: every rank a plain callable on a fiber
        interpreter.needs_fibers = lambda program: True
    try:
        t0 = time.perf_counter()
        res = cp.run(cost=IPSC860, timeout_s=900.0)
        wall = time.perf_counter() - t0
    finally:
        interpreter.needs_fibers = needs_fibers
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
    out = {}
    for P in MICRO_PROCS:
        for form in ("fiber", "generator"):
            out[(P, form)] = _run_micro(P, form)
    return out


@pytest.fixture(scope="module")
def apps():
    out = {}
    for app, mksrc, arr in (
        ("stencil", lambda P: stencil1d_source(4 * P, APP_STEPS), "x"),
        ("wave", lambda P: wave_source(4 * P, APP_STEPS), "u"),
    ):
        src_small = mksrc(APP_P_SMALL)
        out[(app, APP_P_SMALL, "fiber")] = _run_app(
            src_small, APP_P_SMALL, "fiber", arr)
        out[(app, APP_P_SMALL, "generator")] = _run_app(
            src_small, APP_P_SMALL, "generator", arr)
        out[(app, APP_P_LARGE, "generator")] = _run_app(
            mksrc(APP_P_LARGE), APP_P_LARGE, "generator", arr)
    return out


def test_bench_simcore_event(benchmark, micro, apps, paper_table):
    benchmark.pedantic(lambda: _run_micro(256, "generator"),
                       rounds=2, iterations=1)
    rows = []
    payload = {
        "scheduler": "event",
        "cpu_count": os.cpu_count(),
        "micro": {"rounds": MICRO_ROUNDS, "series": {}},
        "apps": {},
        "ratios": {},
    }
    for P in MICRO_PROCS:
        c, e = micro[(P, "fiber")], micro[(P, "generator")]
        ratio = c["wall_s"] / e["wall_s"]
        payload["micro"]["series"][str(P)] = {
            "fiber": c, "generator": e, "fiber_over_generator": ratio,
        }
        payload["ratios"][f"ring_P{P}_fiber_over_generator"] = ratio
        rows.append(
            f"ring     P={P:<5} fiber={c['wall_per_rank_us']:>7.0f}us/rank "
            f"generator={e['wall_per_rank_us']:>7.0f}us/rank "
            f"ratio={ratio:>5.2f}x "
            f"events/s={e['events_per_s']:>9.0f}"
        )
    for (app, P, form), m in sorted(apps.items()):
        entry = dict(m)
        entry["stats"] = m["stats"].as_dict()
        payload["apps"][f"{app}_P{P}_{form}"] = entry
        rows.append(
            f"{app:<8} P={P:<5} {form:<9} wall={m['wall_s']:>7.2f}s "
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
            m = apps[(app, APP_P_LARGE, "generator")]
            assert m["stats"].nprocs == APP_P_LARGE
            assert m["stats"].scheduler == "event"
            assert m["messages"] > 0

    def test_apps_bit_identical_at_p64(self, apps):
        """Virtual time and results agree between the program forms
        (the differential suite covers this exhaustively at small P;
        this pins it at P=64 in the bench configuration)."""
        for app in ("stencil", "wave"):
            c = apps[(app, APP_P_SMALL, "fiber")]
            e = apps[(app, APP_P_SMALL, "generator")]
            assert c["sim_time_us"] == e["sim_time_us"], app
            assert c["messages"] == e["messages"], app
            assert c["checksum"] == e["checksum"], app

    def test_event_flat_per_rank(self, micro):
        """Per-rank cost of generator programs must not grow with P —
        that flatness is the entire point of the design."""
        lo = micro[(MICRO_PROCS[0], "generator")]["wall_per_rank_us"]
        hi = micro[(MICRO_PROCS[-1], "generator")]["wall_per_rank_us"]
        assert hi <= 3.0 * lo, (lo, hi)

    def test_event_wins_at_scale(self, micro):
        """Fibers pay per-thread costs that grow with P; by the top of
        the ladder generators must win decisively, and the advantage
        must grow along the ladder."""
        first = micro[(MICRO_PROCS[0], "fiber")]["wall_s"] \
            / micro[(MICRO_PROCS[0], "generator")]["wall_s"]
        last = micro[(MICRO_PROCS[-1], "fiber")]["wall_s"] \
            / micro[(MICRO_PROCS[-1], "generator")]["wall_s"]
        assert first >= 0.8, \
            f"generators lose at P={MICRO_PROCS[0]}: {first:.2f}x"
        assert last >= 2.0, \
            f"generators only {last:.2f}x at P={MICRO_PROCS[-1]}"
        assert last > first, (first, last)

    def test_event_dispatch_accounting(self, micro):
        """Every rank is dispatched at least once and events/sec is
        meaningful (dispatches scale with blocking points)."""
        for P in MICRO_PROCS:
            e = micro[(P, "generator")]
            assert e["dispatches"] >= P
            assert e["events_per_s"] > 0
