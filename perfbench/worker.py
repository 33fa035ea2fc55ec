"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this with a hermetic environment; run it by hand as::

    PYTHONPATH=src:perfbench python perfbench/worker.py \\
        --workload compile-edit --seed 1 --seconds 10 --trace 0

The client is closed-loop, single-threaded and runs one job at a time:
``compile_program`` (cold, or after a one-procedure edit), then
``CompiledProgram.run`` with the program's default scheduler, codegen
and vectorization, then a check of every gathered array against
``run_sequential`` of the same source.  Jobs start until ``--seconds``
have passed, and at least one whole cycle (two with ``--trace 1``:
untraced and traced cycles alternate) always runs.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps import make_dgefa_init, stencil1d_source
from repro.core import CompileError, Mode, Options, compile_program
from repro.core.driver import compile_cache_stats
from repro.interp.interpreter import InterpError, run_sequential
from repro.lang import parse
from repro.machine import SimulationError

from layers import LayerTrace
from workloads import cycles, rename_units


def _warm_up() -> None:
    """One compile and run of a tiny program (part of set-up)."""
    src = rename_units(stencil1d_source(64, 1), "_warmup")
    compile_program(src, Options(nprocs=4)).run().gathered("x")


@dataclass
class Record:
    """What one job measured (times in host seconds)."""

    slot: str
    traced: bool
    failed: Optional[str] = None
    cold_s: Optional[float] = None
    recompile_s: Optional[float] = None
    run_s: float = 0.0
    #: exact simulated statistics: (virtual ms, messages, total bytes)
    exact: tuple = ()
    #: per-layer values of a traced job (see _layer_values)
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """One cold compile, the recompiles and the run."""
        return (self.cold_s or 0.0) + (self.recompile_s or 0.0) + self.run_s


#: layer counts that every job of one family must repeat exactly (the
#: generated source size repeats only for identical sources, i.e. across
#: runs of one seed, since edits change the constants it embeds)
FAMILY_LAYER_COUNTS = ("interp.array_bytes", "core.procedures")


class Client:
    def __init__(self, trace=None) -> None:
        self.trace = trace          # a LayerTrace for traced jobs
        self.oracles: dict = {}
        self.seen: set[str] = set()
        self.families: dict[tuple, tuple] = {}
        self.memo_hits = 0          # compile-memo hits during timed jobs

    def reference(self, job, init) -> dict:
        """Arrays of the sequential run of the job's source, cached per
        ``job.oracle`` when set (jobs sharing it compute the same
        arrays)."""
        ref = self.oracles.get(job.oracle)
        if ref is None:
            kw = {"init_fn": init} if init is not None else {}
            frame = run_sequential(parse(job.sources[-1]), **kw)
            ref = {n: a.data for n, a in frame.arrays.items()}
            if job.oracle is not None:
                self.oracles[job.oracle] = ref
        return ref

    def run(self, job, traced: bool) -> Record:
        """Run *job*; a compile or simulation error, a changed simulated
        statistic, or a wrong array marks the record failed."""
        rec = Record(job.slot, traced)
        init = make_dgefa_init(job.dgefa_n) if job.dgefa_n else None
        if any(s in self.seen for s in job.sources):
            rec.failed = "source compiled before in this process"
            return rec
        self.seen.update(job.sources)

        lt = self.trace if traced else None
        gc.collect()
        hits0 = compile_cache_stats()["hits"]
        try:
            if lt is None:
                result, reports = _timed(job, rec, init,
                                         lambda name: nullcontext())
            else:
                lt.install()
                before = lt.snapshot()
                try:
                    result, reports = _timed(
                        job, rec, init and lt.counting(init), lt.span)
                finally:
                    after = lt.snapshot()
                    lt.uninstall()
        except (CompileError, SimulationError, InterpError) as e:
            rec.failed = f"{type(e).__name__}: {e}"
            return rec
        self.memo_hits += compile_cache_stats()["hits"] - hits0

        stats = result.stats
        rec.exact = (stats.time_ms, stats.messages, stats.total_bytes)
        checks = [("simulated statistics", rec.exact)]
        if lt is not None:
            rec.layers = _layer_values(rec, _delta(after, before),
                                       stats.as_dict(), reports)
            checks.append(("layer counts", tuple(
                rec.layers[k] for k in FAMILY_LAYER_COUNTS)))
        for what, got in checks:
            want = self.families.setdefault((job.family, what), got)
            if got != want:
                rec.failed = f"{what} changed: {got} != {want}"
                return rec
        for name, want in self.reference(job, init).items():
            got = result.gathered(name)
            if got.shape != want.shape or not np.allclose(got, want):
                rec.failed = f"array {name} differs from run_sequential"
                return rec
        return rec


def _timed(job, rec: Record, init, span):
    """Compile every source, run the last; fill in the timings."""
    reports, cold = [], []
    for k, src in enumerate(job.sources):
        t0 = time.perf_counter()
        with span("compile"):
            prog = compile_program(
                src, Options(nprocs=job.nprocs, mode=Mode(job.mode)))
        dt = time.perf_counter() - t0
        reports.append(prog.report)
        if k < job.cold:
            cold.append(dt)
        else:
            rec.recompile_s = (rec.recompile_s or 0.0) + dt
    if cold:
        rec.cold_s = statistics.median(cold)
    kw = {"init_fn": init} if init is not None else {}
    t0 = time.perf_counter()
    with span("run"):
        result = prog.run(**kw)
    rec.run_s = time.perf_counter() - t0
    return result, reports


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key in ("self", "incl", "calls", "counts"):
        a, b = after[key], before[key]
        out[key] = {k: a[k] - b.get(k, 0) for k in a}
    out["node_self_s"] = after["node_self_s"] - before["node_self_s"]
    return out


def _layer_values(rec: Record, lay: dict, st: dict, reports) -> dict:
    incl, self_s = lay["incl"], lay["self"]
    calls, counts = lay["calls"], lay["counts"]
    return {
        "lang.parse_s": incl.get("parse", 0.0),
        "lang.parse_calls": calls.get("parse", 0),
        "core.front_end_s": self_s.get("front_end", 0.0),
        "core.procedure_s": incl.get("procedure", 0.0),
        "core.procedures": calls.get("procedure", 0),
        "core.clones": sum(len(c) for rep in reports
                           for c in rep.cloned.values()),
        "core.comm_placements": sum(len(rep.comm_placements)
                                    for rep in reports),
        "core.rtr_demotions": sum(len(rep.rtr_demotions)
                                  for rep in reports),
        "codegen.emit_s": incl.get("emit", 0.0),
        "codegen.modules_emitted": calls.get("emit", 0),
        "codegen.source_bytes": counts.get("source_bytes", 0),
        "codegen.load_s": self_s.get("load", 0.0),
        "codegen.hits": counts.get("codegen_hits", 0),
        "codegen.misses": counts.get("codegen_misses", 0),
        "codegen.demotions": st["codegen_demotions"],
        "codegen.node_s": incl.get("node", 0.0),
        "codegen.node_self_s": lay["node_self_s"],
        "interp.arrays_allocated": counts.get("arrays", 0),
        "interp.array_bytes": counts.get("array_bytes", 0),
        "interp.alloc_s": incl.get("alloc", 0.0),
        "interp.init_calls": counts.get("init_calls", 0),
        "interp.comm_cache_hits": st["comm_cache_hits"],
        "interp.comm_cache_misses": st["comm_cache_misses"],
        "machine.run_wall_s": st["wall_s"],
        "machine.sched_s": st["wall_s"] - incl.get("node", 0.0),
        "machine.comm_s": incl.get("comm", 0.0),
        "machine.comm_calls": calls.get("comm", 0),
        "machine.dispatches": st["dispatches"],
        "machine.switches": st["switches"],
        "runtime.remap_s": incl.get("remap", 0.0),
        "runtime.remaps": st["remaps"],
        "runtime.remap_bytes": st["remap_bytes"],
        "obs.flightrec_events": calls.get("flightrec", 0),
        "obs.flightrec_s": incl.get("flightrec", 0.0),
        "wall_s": rec.wall_s,
    }


# ---------------------------------------------------------------------------
# aggregation over the slots of one cycle: timings are medians over a
# slot's jobs; counts come from the slot's first job, so they repeat
# exactly across runs of one seed
# ---------------------------------------------------------------------------


def _sum_medians(records, value) -> float:
    by_slot = defaultdict(list)
    for r in records:
        v = value(r)
        if v is not None:
            by_slot[r.slot].append(v)
    return sum(statistics.median(vs) for vs in by_slot.values())


def _sum_first(records, value):
    first = {}
    for r in records:
        first.setdefault(r.slot, value(r))
    return sum(first.values())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, setup_s: float, rss_mb: float) -> dict:
    ok = [r for r in records if r.failed is None and not r.traced]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (_sum_medians(ok, lambda r: r.wall_s), "s"),
        "compile_s": (_sum_medians(ok, lambda r: r.cold_s), "s"),
        "recompile_s": (_sum_medians(ok, lambda r: r.recompile_s), "s"),
        "run_s": (_sum_medians(ok, lambda r: r.run_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sim_time_ms": (_sum_first(ok, lambda r: r.exact[0]), "virtual_ms"),
        "messages": (_sum_first(ok, lambda r: r.exact[1]), "count"),
        "bytes": (_sum_first(ok, lambda r: r.exact[2]), "bytes"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


#: per-layer metric -> unit
PER_LAYER_UNITS = {
    "lang.parse_s": "s", "lang.parse_calls": "count",
    "core.front_end_s": "s", "core.procedure_s": "s",
    "core.procedures": "count", "core.clones": "count",
    "core.comm_placements": "count", "core.rtr_demotions": "count",
    "codegen.emit_s": "s", "codegen.modules_emitted": "count",
    "codegen.source_bytes": "bytes", "codegen.load_s": "s",
    "codegen.cache_hit_ratio": "ratio", "codegen.demotions": "count",
    "codegen.node_s": "s", "codegen.node_self_s": "s",
    "interp.arrays_allocated": "count", "interp.array_bytes": "bytes",
    "interp.alloc_s": "s", "interp.init_calls": "count",
    "interp.comm_cache_hit_ratio": "ratio",
    "machine.run_wall_s": "s", "machine.sched_s": "s",
    "machine.comm_s": "s", "machine.comm_calls": "count",
    "machine.dispatches": "count", "machine.switches": "count",
    "runtime.remap_s": "s", "runtime.remaps": "count",
    "runtime.remap_bytes": "bytes",
    "obs.flightrec_events": "count", "obs.flightrec_s": "s",
    "trace_overhead_ratio": "ratio",
}


def per_layer(records) -> dict:
    traced = [r for r in records if r.failed is None and r.traced]
    untraced = [r for r in records if r.failed is None and not r.traced]
    keys = traced[0].layers.keys() if traced else ()
    total = {}
    for k in keys:
        agg = _sum_medians if k == "wall_s" \
            or PER_LAYER_UNITS.get(k) == "s" else _sum_first
        total[k] = agg(traced, lambda r: r.layers[k])

    def ratio(hits, misses):
        h, m = total.get(hits, 0), total.get(misses, 0)
        return h / (h + m) if h + m else 0.0

    total["codegen.cache_hit_ratio"] = ratio("codegen.hits",
                                             "codegen.misses")
    total["interp.comm_cache_hit_ratio"] = ratio("interp.comm_cache_hits",
                                                 "interp.comm_cache_misses")
    both = {r.slot for r in traced} & {r.slot for r in untraced}
    base = _sum_medians([r for r in untraced if r.slot in both],
                        lambda r: r.wall_s)
    over = _sum_medians([r for r in traced if r.slot in both],
                        lambda r: r.wall_s)
    total["trace_overhead_ratio"] = over / base if base else 0.0
    return {k: {"value": total.get(k, 0), "unit": u}
            for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() when the parent started this "
                         "process (default: now)")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up, print it, and exit")
    args = ap.parse_args(argv)
    spawned = args.spawned_at if args.spawned_at is not None \
        else time.monotonic()

    _warm_up()
    client = Client(LayerTrace() if args.trace else None)
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    min_cycles = 2 if args.trace else 1
    records: list[Record] = []
    deadline = time.perf_counter() + args.seconds
    rss_mb = 0.0
    for k, cycle in enumerate(cycles(args.workload, args.seed)):
        if k == 1:
            rss_mb = _peak_rss_mb()
        if k >= min_cycles and time.perf_counter() >= deadline:
            break
        traced = bool(args.trace) and k % 2 == 1
        for job in cycle:
            if k >= min_cycles and time.perf_counter() >= deadline:
                break
            rec = client.run(job, traced)
            records.append(rec)
            if rec.failed:
                print(f"job {job.slot} failed: {rec.failed}",
                      file=sys.stderr)
    failed = sum(r.failed is not None for r in records)
    if client.memo_hits:
        print(f"{client.memo_hits} compiles were served from the "
              "in-process memo", file=sys.stderr)
    metrics = per_layer(records) if args.trace \
        else end_to_end(records, setup_s, rss_mb)
    print(json.dumps({
        "correct": failed == 0 and client.memo_hits == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
