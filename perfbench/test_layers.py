"""Self-test of the traced-run wrappers.

    python -m pytest perfbench -q

The wrappers must put every original entry point back, and a traced run
must leave every gathered array and simulated RunStats field unchanged.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.apps import adi_source, dgefa_source, make_dgefa_init  # noqa: E402
from repro.apps import stencil1d_source  # noqa: E402
from repro.core import Mode, Options, compile_program  # noqa: E402

from layers import LayerTrace  # noqa: E402
from workloads import cycles, rename_units  # noqa: E402
import worker  # noqa: E402

SIMULATED = ("messages", "bytes", "collectives", "collective_bytes",
             "remaps", "remap_bytes", "flops", "guards", "proc_times",
             "proc_work", "time_us")

#: (source, nprocs, mode, dgefa n): point-to-point, remap, RTR, collectives
PROGRAMS = [
    (stencil1d_source(64, 3), 8, Mode.INTER, None),
    (adi_source(32, 1), 4, Mode.INTER, None),
    (dgefa_source(16), 4, Mode.RTR, 16),
    (dgefa_source(16), 4, Mode.INTER, 16),
]


@pytest.fixture(autouse=True)
def hermetic(monkeypatch, tmp_path):
    """Program defaults and an empty codegen disk cache, as in a
    benchmark run."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))


def _bindings() -> dict:
    """Identity of every attribute of every repro module and class."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("repro"):
            continue
        for attr, val in list(vars(mod).items()):
            out[(modname, attr)] = id(val)
            if isinstance(val, type):
                for cattr, cval in list(val.__dict__.items()):
                    out[(modname, attr, cattr)] = id(cval)
    return out


def test_uninstall_restores_every_entry_point():
    warm = LayerTrace()  # imports every module install() patches
    warm.install()
    warm.uninstall()
    lt = LayerTrace()
    before = _bindings()
    lt.install()
    patched = list(lt._patches)
    assert len(patched) >= 20
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is not orig
    lt.uninstall()
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig
    assert lt._patches == []
    assert _bindings() == before


def _run(src, nprocs, mode, dgefa_n, scheduler, lt=None):
    kw = {"init_fn": make_dgefa_init(dgefa_n)} if dgefa_n else {}
    if lt is not None:
        lt.install()
    try:
        prog = compile_program(src, Options(nprocs=nprocs, mode=mode))
        result = prog.run(scheduler=scheduler, **kw)
    finally:
        if lt is not None:
            lt.uninstall()
    stats = result.stats.as_dict()
    arrays = {n: result.gathered(n) for n in result.frames[0].arrays}
    return arrays, {k: stats[k] for k in SIMULATED}


@pytest.mark.parametrize("scheduler", ["coop", "event"])
@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_traced_run_changes_no_result(index, scheduler):
    src, nprocs, mode, dgefa_n = PROGRAMS[index]
    plain = rename_units(src, f"_p{index}{scheduler}")
    traced = rename_units(src, f"_t{index}{scheduler}")
    want_arrays, want_stats = _run(plain, nprocs, mode, dgefa_n, scheduler)
    lt = LayerTrace()
    got_arrays, got_stats = _run(traced, nprocs, mode, dgefa_n, scheduler,
                                 lt)
    assert got_stats == want_stats
    assert want_arrays.keys() == got_arrays.keys()
    for name, want in want_arrays.items():
        assert np.array_equal(got_arrays[name], want), name
    assert lt.calls["node"] == nprocs
    assert lt.calls["parse"] == 1 and lt.calls["emit"] > 0
    assert lt.calls["comm"] > 0
    assert lt.incl_s["node"] >= lt.node_self_s > 0.0


def test_generator_time_excludes_suspension():
    lt = LayerTrace()

    def gen():
        yield 1
        return 2

    wrapped = lt.wrap(gen, "node")
    lt.enter("outer")
    g = wrapped()
    assert next(g) == 1
    time.sleep(0.05)
    with pytest.raises(StopIteration) as stop:
        next(g)
    lt.exit()
    assert stop.value.value == 2
    assert lt.incl_s["node"] < 0.01
    assert lt.self_s["outer"] >= 0.05
    assert lt.calls["node"] == 1


def test_layer_counts_repeat_exactly():
    from workloads import Job

    client = worker.Client(LayerTrace())
    src = stencil1d_source(64, 2)
    records = [
        client.run(Job("s", [rename_units(src, f"_r{k}")], 8, "inter",
                       cold=1, oracle="s", family="s"), traced=True)
        for k in range(2)
    ]
    assert [r.failed for r in records] == [None, None]
    keys = worker.FAMILY_LAYER_COUNTS + ("codegen.source_bytes",)
    counts = [tuple(r.layers[k] for k in keys) for r in records]
    assert counts[0] == counts[1] and all(counts[0])


def test_benchmark_json_names_every_metric_printed():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = worker.end_to_end([], setup_s=1.0, rss_mb=1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        worker.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert next(cycles(name, 0))
