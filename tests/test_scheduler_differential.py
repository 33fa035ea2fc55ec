"""Dispatch-order differential suite for the event core.

Virtual time is dataflow-determined (a recv completes at ``max(own
clock, arrival)``, a collective at ``max(participant clocks) + tree
cost``), so per-rank arrays, virtual clocks, delivery statistics and
printed output must not depend on the order in which the calendar
dispatches runnable ranks.  This suite perturbs that order — the test
pops a seeded-random runnable heap entry instead of the ``(clock,
rank)`` minimum — and requires bit-identical results, with a positive
control that the order really changed.  It also checks determinism of
the scheduler itself and the equivalence of the
communication-schedule cache.  Uniform topology only: link contention
is order-dependent by design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import FaultPlan, Machine

from .legs import leg, perturbed_dispatch, recorded_dispatch

#: statistics that must not depend on the dispatch order (wall-clock
#: and the scheduler counters themselves are exempt by definition)
STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)

CASES = [
    ("stencil1d", stencil1d_source(128, 4), None),
    ("stencil2d", stencil2d_source(24, 2), None),
    ("adi", adi_source(32, 2), None),
    ("cg", cg_source(32, 4), None),
    ("dgefa", dgefa_source(16), make_dgefa_init(16)),
    ("wave", wave_source(64, 4), None),
]
SEEDS = [1, 2, 3]


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0)


def _run(cp, init, **kw):
    extra = {"init_fn": init} if init is not None else {}
    return cp.run(timeout_s=30.0, **extra, **kw)


def _assert_identical(a, b, label):
    """Arrays, per-rank virtual clocks, delivery stats and prints must
    match bit for bit."""
    assert a.stats.proc_times == b.stats.proc_times, label
    for f in STAT_FIELDS:
        assert getattr(a.stats, f) == getattr(b.stats, f), (label, f)
    for name in a.frames[0].arrays:
        for rk, (fa, fb) in enumerate(zip(a.frames, b.frames)):
            assert np.array_equal(
                fa.arrays[name].data, fb.arrays[name].data,
                equal_nan=True,
            ), f"{label}: array {name} differs on rank {rk}"
    assert a.prints == b.prints, label


def _assert_order_invariant(cp, init, label, seeds, **kw):
    """The perturbation oracle: every seeded dispatch order reproduces
    the ``(clock, rank)``-ordered run exactly, and actually differs
    from it (positive control)."""
    with recorded_dispatch() as base_order:
        base = _run(cp, init, **kw)
    for seed in seeds:
        with perturbed_dispatch(seed) as order:
            got = _run(cp, init, **kw)
        _assert_identical(base, got, f"{label} perturb={seed}")
        assert order != base_order, \
            f"{label} perturb={seed}: dispatch order did not change"
    return base


@pytest.mark.parametrize("vectorize", [False, True],
                         ids=["scalar", "vectorized"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_apps_bit_identical_across_backends(src, init, seed, vectorize):
    """Perturbed dispatch orders (what the retired thread backend
    explored by accident) reproduce the ``(clock, rank)``-ordered run
    under a chaos plan."""
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    plan = _chaos_plan(seed)
    label = f"seed={seed} vec={vectorize}"
    _assert_order_invariant(
        cp, init, label, [seed, seed + 100], faults=plan,
        vectorize=vectorize,
    )


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.RTR],
                         ids=["inter", "rtr"])
def test_modes_bit_identical_across_backends(mode):
    """RTR's element-grain messaging stresses the comm path hardest."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=mode))
    _assert_order_invariant(cp, None, mode.value, range(1, 6))


@pytest.mark.parametrize("leg_name", ["coop", "event"])
def test_deterministic_backends_repeat_exactly(leg_name):
    """Two runs agree on everything including the scheduler's own
    counters — dispatch order is a pure function of (clock, rank), or
    of the seed under the perturbed ``coop`` leg (``tests/legs.py``)."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))

    def run():
        with leg(leg_name):
            return _run(cp, None, faults=_chaos_plan(1))

    a, b = run(), run()
    _assert_identical(a, b, "repeat")
    assert a.stats.dispatches == b.stats.dispatches
    assert a.stats.switches == b.stats.switches


def test_comm_cache_equivalence(monkeypatch):
    """The communication-schedule cache is a pure memoization: results
    and statistics are identical with it disabled."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    cached = _run(cp, None)
    monkeypatch.setenv("REPRO_COMM_CACHE", "0")
    uncached = _run(cp, None)
    _assert_identical(cached, uncached, "comm-cache")
    assert cached.stats.comm_cache_hits > 0
    assert uncached.stats.comm_cache_hits == 0


def test_scheduler_stats_surface():
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    res = _run(cp, None)
    s = res.stats
    assert s.scheduler == "event"
    assert s.wall_s > 0.0
    assert s.dispatches >= 4
    assert s.switches > 0
    line = s.sched_summary()
    assert "scheduler=event" in line and "dispatches=" in line


def test_scheduler_argument_accepts_only_event(monkeypatch):
    """The event core is the only backend: ``scheduler=`` survives as a
    check, and the environment no longer selects anything."""
    monkeypatch.setenv("REPRO_SCHEDULER", "threads")
    assert Machine(2).scheduler == "event"
    assert Machine(2, scheduler="event").scheduler == "event"
    for name in ("coop", "threads", "fibers"):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Machine(2, scheduler=name)
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    with pytest.raises(ValueError, match="unknown scheduler"):
        cp.run(scheduler="coop")


def test_cli_scheduler_flag(tmp_path, capsys):
    """``fdc`` has no ``--scheduler`` flag; ``--report`` names the one
    backend."""
    from repro.cli import main

    f = tmp_path / "prog.fd"
    f.write_text(stencil1d_source(64, 2))
    with pytest.raises(SystemExit) as ei:
        main([str(f), "--run", "--no-text", "--scheduler", "event"])
    assert ei.value.code == 2
    assert "--scheduler" in capsys.readouterr().err
    rc = main([str(f), "--run", "--no-text", "--report"])
    assert rc == 0
    assert "scheduler=event" in capsys.readouterr().out
