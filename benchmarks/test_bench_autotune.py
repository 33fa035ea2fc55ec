"""Benchmark [new]: the profile-guided distribution auto-tuner.

The paper fixes the data layout and derives communication; the tuner
closes the remaining loop and searches the layout space itself.  This
bench records, in ``BENCH_autotune.json``:

* tuned-vs-default simulated virtual time per paper app (cg, stencil,
  and a block-written dgefa whose column-cyclic layout the tuner must
  rediscover), with the winning plan's CLI flags;
* bit-identity: the winning plan, applied through the normal compile
  path, matches sequential execution and reproduces the tuner's own
  predicted virtual time exactly;
* parallel-vs-serial search wall time at equal budget over an
  identical plan list (the >= 2x assertion is gated on hosts with
  >= 4 CPUs — a single-core runner timeshares the workers — but the
  measured ratio is always recorded);
* evaluation-memo hit rate on an immediate re-tune (crash-safe store,
  so a second search is nearly free).

Shape assertions: the tuner finds a strictly better plan on >= 2 apps
and >= 1.2x on >= 1; parallel and serial sweeps score every plan
identically.
"""

import os
import time

import numpy as np

from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source
from repro.apps.stencil import stencil1d_source
from repro.core import Options, compile_program
from repro.interp import run_sequential
from repro.lang import parse
from repro.machine import IPSC860
from repro.tune import Plan, autotune, evaluate_plan, \
    make_eval_compiler

from _harness import emit_bench

BUDGET = 16

#: app -> (source, base nprocs)
APPS = {
    "cg": (cg_source(64, 8), 4),
    "stencil1d": (stencil1d_source(256, 8), 4),
    "dgefa_block": (
        dgefa_source(64).replace("distribute a(:, cyclic)",
                                 "distribute a(:, block)"),
        4,
    ),
}

payload: dict = {"budget": BUDGET, "apps": {}}


def test_tuned_vs_default(paper_table):
    rows = []
    for app, (src, P) in sorted(APPS.items()):
        out = autotune(src, Options(nprocs=P), budget=BUDGET,
                       workers=0, memo_dir="")
        payload["apps"][app] = {
            "default_time_us": out.base.time_us,
            "tuned_time_us": out.best_metrics["time_us"],
            "speedup": out.predicted_speedup,
            "plan": out.best.describe(),
            "flags": out.best.cli_flags(),
            "evaluated": out.evaluated,
            "wall_s": out.wall_s,
            "plans_per_s": out.plans_per_s,
        }
        rows.append(
            f"{app:<26} {out.base.time_us / 1000.0:>10.3f} "
            f"{out.best_metrics['time_us'] / 1000.0:>10.3f} "
            f"{out.predicted_speedup:>8.2f}x  {out.best.describe()}"
        )
    paper_table(
        "autotune: tuned vs default virtual time",
        f"{'app':<26} {'default(ms)':>10} {'tuned(ms)':>10} "
        f"{'speedup':>9}  plan",
        rows,
    )
    speedups = [a["speedup"] for a in payload["apps"].values()]
    assert sum(1 for s in speedups if s > 1.0) >= 2, \
        f"tuner should win on >= 2 apps, got speedups {speedups}"
    assert max(speedups) >= 1.2, \
        f"tuner should reach >= 1.2x somewhere, got {speedups}"


def test_tuned_plan_is_bit_identical(paper_table):
    """The winning cg plan, compiled through the normal driver: results
    match sequential execution and the virtual time reproduces the
    tuner's prediction exactly."""
    src, P = APPS["cg"]
    out = autotune(src, Options(nprocs=P), budget=BUDGET, workers=0,
                   memo_dir="")
    tuned_opts = out.best.apply(Options(nprocs=P))
    cp = compile_program(src, tuned_opts)
    res = cp.run(cost=IPSC860, codegen=False,
                 timeout_s=120.0)
    assert res.stats.time_us == out.best_metrics["time_us"], \
        "applied plan must reproduce the tuner's measured virtual time"
    seq = run_sequential(parse(src))
    verified = []
    for name, arr in seq.arrays.items():
        if name in res.frames[0].arrays:
            assert np.allclose(res.gathered(name), arr.data), \
                f"tuned {name} diverged from sequential execution"
            verified.append(name)
    assert verified
    payload["bit_identity"] = {
        "app": "cg",
        "verified_arrays": sorted(verified),
        "predicted_time_us": out.best_metrics["time_us"],
        "applied_time_us": res.stats.time_us,
    }


def test_parallel_vs_serial_search(paper_table, tmp_path):
    """An identical 12-plan list over a heavy cg instance, scored
    serially and across a 4-worker pool."""
    from repro.service.pool import WorkerPool

    src = cg_source(384, 128)
    base = Options(nprocs=4)
    # a 12-point processor sweep: every plan simulates in comparable,
    # nontrivial wall time, so the ratio measures parallelism rather
    # than one pathological straggler
    plans = [Plan(P, ())
             for P in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)]
    applied = [p.apply(base) for p in plans]

    t0 = time.perf_counter()
    sc = make_eval_compiler()
    serial = [evaluate_plan(sc, src, o) for o in applied]
    serial_wall = time.perf_counter() - t0

    pool = WorkerPool(size=4, job_timeout_s=300.0)
    try:
        t0 = time.perf_counter()
        parallel = pool.evaluate_plans(
            src, applied, store_dir=str(tmp_path / "store")
        )
        parallel_wall = time.perf_counter() - t0
    finally:
        pool.close()

    assert [m["time_us"] for m in serial] == \
        [m["time_us"] for m in parallel], \
        "parallel and serial sweeps must score plans identically"

    ratio = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    host_cpus = os.cpu_count() or 1
    payload["parallel_search"] = {
        "plans": len(plans),
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "parallel_speedup": ratio,
        "workers": 4,
        "serial_plans_per_s": len(plans) / serial_wall,
        "parallel_plans_per_s": len(plans) / parallel_wall,
    }
    paper_table(
        "autotune: parallel vs serial plan evaluation (12 plans)",
        f"{'path':<26} {'wall(s)':>10} {'plans/s':>10}",
        [
            f"{'serial':<26} {serial_wall:>10.2f} "
            f"{len(plans) / serial_wall:>10.1f}",
            f"{'4 workers':<26} {parallel_wall:>10.2f} "
            f"{len(plans) / parallel_wall:>10.1f}",
            f"{'speedup':<26} {ratio:>10.2f}x",
        ],
    )
    if host_cpus >= 4:
        assert ratio >= 2.0, (
            f"parallel search should be >= 2x serial on a {host_cpus}-"
            f"CPU host, got {ratio:.2f}x"
        )


def test_memo_hit_rate(tmp_path):
    """Re-tuning the same program hits the crash-safe memo for every
    candidate."""
    src, P = APPS["stencil1d"]
    memo_dir = str(tmp_path / "memo")
    first = autotune(src, Options(nprocs=P), budget=BUDGET, workers=0,
                     memo_dir=memo_dir)
    again = autotune(src, Options(nprocs=P), budget=BUDGET, workers=0,
                     memo_dir=memo_dir)
    candidates = len(again.records)
    rate = again.memo_hits / candidates if candidates else 0.0
    payload["memo"] = {
        "first_evaluated": first.evaluated,
        "rerun_memo_hits": again.memo_hits,
        "rerun_candidates": candidates,
        "rerun_hit_rate": rate,
        "first_wall_s": first.wall_s,
        "rerun_wall_s": again.wall_s,
    }
    assert first.memo_hits == 0
    assert rate == 1.0, f"every re-tuned candidate should hit, got {rate}"


def test_emit(record_property):
    out = emit_bench("autotune", payload)
    record_property("bench_json", str(out))
    assert out.exists()
