"""Experiment [simulation core]: event core cost per rank, comm cache.

Not a paper figure — this measures the simulator itself.  The event
core executes exactly one rank at a time and switches only at network
blocking points, so it pays no GIL hand-offs, no lock contention, and
no condition-variable wakeups; the communication-schedule cache
additionally turns steady-state message assembly into a dict lookup
plus one slice copy.

The bench runs the stencil relaxation at P = 1, 4, 16, 64 and dgefa at
P = 16 and reports host wall-clock per simulated rank, plus the
communication-schedule cache's effect (the same runs with
``REPRO_COMM_CACHE=0``).  Everything lands in ``BENCH_simcore.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source
from repro.core import Mode, Options, compile_program
from repro.machine import IPSC860

from _harness import emit_bench

PROCS = [1, 4, 16, 64]
STENCIL_N, STENCIL_STEPS = 256, 50
DGEFA_N = 48
REPS = 3


def _best_wall(run, reps: int = REPS) -> tuple[float, object]:
    """Best-of-*reps* wall-clock seconds (noise floor) and last result."""
    best, res = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def _measure(src, P, *, cache=True, init_fn=None, arr="x"):
    os.environ["REPRO_COMM_CACHE"] = "1" if cache else "0"
    try:
        cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))
        extra = {"init_fn": init_fn} if init_fn is not None else {}
        wall, res = _best_wall(
            lambda: cp.run(cost=IPSC860, timeout_s=300.0, **extra)
        )
    finally:
        os.environ.pop("REPRO_COMM_CACHE", None)
    return {
        "wall_s": wall,
        "wall_per_rank_ms": wall / P * 1e3,
        "array": res.gathered(arr),
        "stats": res.stats,
    }


@pytest.fixture(scope="module")
def sweep():
    """All (app, P, config) measurements: ``cached`` is the default
    configuration, ``nocache`` disables the comm-schedule cache."""
    out = {}
    src = stencil1d_source(STENCIL_N, STENCIL_STEPS)
    for P in PROCS:
        out[("stencil", P, "cached")] = _measure(src, P)
    dsrc = dgefa_source(DGEFA_N)
    init = make_dgefa_init(DGEFA_N)
    out[("dgefa", 16, "cached")] = _measure(dsrc, 16, init_fn=init,
                                            arr="a")
    out[("stencil", 16, "nocache")] = _measure(src, 16, cache=False)
    out[("dgefa", 16, "nocache")] = _measure(dsrc, 16, cache=False,
                                             init_fn=init, arr="a")
    return out


def _ratio(sweep, app, P):
    return (sweep[(app, P, "nocache")]["wall_s"]
            / sweep[(app, P, "cached")]["wall_s"])


def test_bench_simcore(benchmark, sweep, paper_table):
    src = stencil1d_source(STENCIL_N, STENCIL_STEPS)
    benchmark.pedantic(
        lambda: compile_program(
            src, Options(nprocs=16, mode=Mode.INTER)
        ).run(cost=IPSC860, timeout_s=300.0),
        rounds=2, iterations=1,
    )
    rows = []
    payload = {
        "cpu_count": os.cpu_count(),
        "stencil": {"n": STENCIL_N, "steps": STENCIL_STEPS},
        "dgefa": {"n": DGEFA_N},
        "configs": {},
    }
    for (app, P, cfg), m in sorted(sweep.items()):
        s = m["stats"]
        rows.append(
            f"{app:<8} P={P:<3} {cfg:<8} wall={m['wall_s'] * 1e3:>8.1f}ms "
            f"per-rank={m['wall_per_rank_ms']:>7.2f}ms "
            f"dispatches={s.dispatches:>6} switches={s.switches:>6} "
            f"comm-cache={s.comm_cache_hits}/{s.comm_cache_hits + s.comm_cache_misses}"
        )
        payload["configs"][f"{app}_P{P}_{cfg}"] = {
            "wall_s": m["wall_s"],
            "wall_per_rank_ms": m["wall_per_rank_ms"],
            "stats": s.as_dict(),
        }
    ratios = {
        "stencil_P16_nocache_over_cached": _ratio(sweep, "stencil", 16),
        "dgefa_P16_nocache_over_cached": _ratio(sweep, "dgefa", 16),
    }
    payload["speedup"] = ratios
    emit_bench("simcore", payload)
    rows.append("comm-cache speedup (P=16): "
                + "  ".join(f"{k.split('_')[0]}={v:.2f}x"
                            for k, v in ratios.items()))
    paper_table(
        f"Simulation core: event core per-rank cost and comm cache "
        f"(stencil n={STENCIL_N} x {STENCIL_STEPS} steps, "
        f"dgefa n={DGEFA_N}, best of {REPS})",
        "app      cfg      measurements",
        rows,
    )
    benchmark.extra_info.update(
        {k: round(v, 3) for k, v in ratios.items()}
    )


class TestShape:
    def test_cache_bit_identical(self, sweep):
        for (app, P, cfg), m in sweep.items():
            if cfg != "nocache":
                continue
            base = sweep[(app, P, "cached")]
            assert np.array_equal(m["array"], base["array"]), (app, P)
            assert m["stats"].messages == base["stats"].messages
            assert m["stats"].bytes == base["stats"].bytes
            assert m["stats"].proc_times == base["stats"].proc_times

    def test_scheduler_stats_recorded(self, sweep):
        m = sweep[("stencil", 16, "cached")]
        assert m["stats"].scheduler == "event"
        assert m["stats"].wall_s > 0
        assert m["stats"].dispatches >= 16
        assert m["stats"].switches > 0
        assert m["stats"].comm_cache_hits > 0
        o = sweep[("stencil", 16, "nocache")]
        assert o["stats"].comm_cache_hits == 0

    def test_dispatch_work_bounded(self, sweep):
        """Run-to-block means context switches scale with blocking
        communication, not with statements executed."""
        m = sweep[("stencil", 16, "cached")]
        s = m["stats"]
        # every switch corresponds to a blocking point; there are at
        # most a few per rank per time step plus scheduling slack
        assert s.switches <= 6 * 16 * STENCIL_STEPS + 16 * 4
