"""Differential suite for generated node programs (repro.codegen).

The generated path must be an *invisible* perf optimization: per-rank
arrays, virtual clocks, delivery statistics, and printed output are
bit-identical to the closure-tree interpreter in every execution leg
(``tests/legs.py``: ``(clock, rank)`` and perturbed dispatch orders),
under fault injection, with and without vectorization — and
every cache malfunction (poisoned entry, unreadable file, stale
generator version) silently regenerates instead of failing or, worse,
executing the wrong module.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

import repro.codegen as codegen
import repro.codegen.emit as emit_mod
from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.codegen import (
    CodegenError,
    GEN_COUNTS,
    get_generated,
    rank_classes,
    reset_memory,
)
from repro.codegen.cache import entry_path, entry_stem, program_key
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.interp.interpreter import find_blocking_units
from repro.lang import ast as A
from repro.machine import FaultPlan
from repro.obs import Tracer

from .legs import leg

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
SEEDS = [1, 3]


@pytest.fixture
def codegen_tmp(monkeypatch, tmp_path):
    """Isolate the disk cache and the in-process memo per test."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    reset_memory()
    yield tmp_path
    reset_memory()


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0)


def _run(cp, init, leg_name, **kw):
    extra = {"init_fn": init} if init is not None else {}
    with leg(leg_name):
        return cp.run(timeout_s=30.0, **extra, **kw)


def _assert_identical(a, b, label):
    assert a.stats.proc_times == b.stats.proc_times, label
    for f in STAT_FIELDS:
        assert getattr(a.stats, f) == getattr(b.stats, f), (label, f)
    for name in a.frames[0].arrays:
        for rk, (fa, fb) in enumerate(zip(a.frames, b.frames)):
            assert np.array_equal(
                fa.arrays[name].data, fb.arrays[name].data,
                equal_nan=True,
            ), f"{label}: array {name} differs on rank {rk}"
    assert sorted(a.prints) == sorted(b.prints), label


# ---------------------------------------------------------------------------
# bit-identity: generated vs interpreter, every leg, under faults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_apps_bit_identical_generated_vs_interpreter(src, init, seed):
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    plan = _chaos_plan(seed)
    ref = _run(cp, init, "coop", faults=plan, codegen=False)
    for sched in ("coop", "threads", "event"):
        gen = _run(cp, init, sched, faults=plan, codegen=True)
        _assert_identical(ref, gen, f"codegen {sched} seed={seed}")


@pytest.mark.parametrize("vectorize", [False, True],
                         ids=["scalar", "vectorized"])
def test_vectorize_axis_bit_identical(vectorize):
    """The generated vectorizer must make block decisions identical to
    the interpreter's in both switch positions."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    ref = _run(cp, None, "coop", vectorize=vectorize, codegen=False)
    for sched in ("coop", "event"):
        gen = _run(cp, None, sched, vectorize=vectorize, codegen=True)
        _assert_identical(ref, gen, f"vec={vectorize} {sched}")


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.RTR],
                         ids=["inter", "rtr"])
def test_modes_bit_identical(mode):
    """RTR's owner-guard + element-message style stresses the emitter's
    guard and comm lowering hardest."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=mode))
    ref = _run(cp, None, "coop", codegen=False)
    _assert_identical(ref, _run(cp, None, "coop", codegen=True),
                      f"{mode.value} coop")
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      f"{mode.value} event")


@pytest.mark.parametrize("name", ["dgefa", "expr-function"])
def test_one_function_per_procedure(codegen_tmp, name):
    """Each procedure is emitted once: one top-level function per
    procedure in every rank-class module, a generator exactly when the
    procedure may block."""
    from .test_expr_function_comm import SRC as EXPR_SRC

    src = dgefa_source(16) if name == "dgefa" else EXPR_SRC
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    gen, _, _ = get_generated(cp.program, 4, True)
    procs = {u.name for u in cp.program.units}
    blocking = find_blocking_units(cp.program)
    assert gen.demotions == []
    assert blocking  # both programs communicate
    for _rlo, _rhi, mod in gen.modules.values():
        defs = [n.name for n in ast.parse(mod.source).body
                if isinstance(n, ast.FunctionDef)]
        assert len(defs) == len(procs), defs
        assert set(mod.units) == procs
        assert sorted(f.__name__ for f in mod.units.values()) == sorted(defs)
        for proc, fn in mod.units.items():
            assert inspect.isgeneratorfunction(fn) == (proc in blocking), \
                proc


def test_no_demotions_on_paper_apps():
    """Every procedure of every paper app must lower; a demotion here
    means the generator regressed."""
    for name, src, _ in CASES:
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        gen, _, _ = get_generated(cp.program, 4, True)
        assert gen.demotions == [], (name, gen.demotions)


# ---------------------------------------------------------------------------
# caching: memory, disk, poisoning
# ---------------------------------------------------------------------------


def test_warm_run_skips_generation(codegen_tmp, monkeypatch):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    # compile_program may itself prewarm; start from a clean slate
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(codegen_tmp / "fresh"))
    reset_memory()
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert misses == len(gen.modules) and hits == 0
    assert GEN_COUNTS["generated"] == len(gen.modules)
    # in-process memo
    gen2, hits2, misses2 = get_generated(cp.program, 4, True)
    assert gen2 is gen and misses2 == 0 and hits2 == len(gen.modules)
    assert GEN_COUNTS["generated"] == len(gen.modules)  # unchanged
    # disk (fresh process simulated by dropping the memo)
    reset_memory()
    gen3, hits3, misses3 = get_generated(cp.program, 4, True)
    assert misses3 == 0 and hits3 == len(gen3.modules)
    assert GEN_COUNTS["generated"] == 0
    assert GEN_COUNTS["disk"] == len(gen3.modules)


def test_run_surfaces_codegen_counters(codegen_tmp):
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    res = _run(cp, None, "event", codegen=True)
    s = res.stats
    ncls = len(rank_classes(4))
    assert s.codegen_cache_hits + s.codegen_cache_misses == ncls
    assert s.codegen_demotions == 0
    d = s.as_dict()
    for key in ("codegen_cache_hits", "codegen_cache_misses",
                "codegen_demotions", "compile_cache_hits",
                "compile_cache_misses"):
        assert key in d
    assert "codegen=" in s.sched_summary()
    # second run: every module comes from cache
    res2 = _run(cp, None, "event", codegen=True)
    assert res2.stats.codegen_cache_hits == ncls
    assert res2.stats.codegen_cache_misses == 0
    # the interpreter-only path records nothing
    res3 = _run(cp, None, "event", codegen=False)
    assert res3.stats.codegen_cache_hits == 0
    assert res3.stats.codegen_cache_misses == 0


def _entry_for(cp, cls="mid"):
    key = program_key(repr(cp.program), 4, True)
    return entry_path(entry_stem(key, 4, True, cls))


def test_poisoned_disk_entry_regenerated(codegen_tmp):
    """A tampered entry (bad header) must be ignored and rewritten."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    gen, _, _ = get_generated(cp.program, 4, True)
    path = _entry_for(cp)
    src = open(path).read()
    with open(path, "w") as f:
        f.write("# tampered\n" + src.split("\n", 1)[1])
    reset_memory()
    gen2, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1  # the poisoned class was regenerated
    assert open(path).read() == src  # and the entry was healed
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      "post-poison")


def test_corrupt_body_regenerated(codegen_tmp):
    """A valid header with an unloadable body (truncation) is a miss."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    get_generated(cp.program, 4, True)
    path = _entry_for(cp)
    src = open(path).read()
    with open(path, "w") as f:
        f.write(src[: len(src) // 2] + "\ndef broken(:\n")
    reset_memory()
    _, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1
    assert open(path).read() == src


def test_unreadable_entry_regenerated(codegen_tmp):
    """An entry that cannot be opened (here: it is a directory) is
    treated as a miss; generation proceeds and the run still works."""
    import os

    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    reset_memory()  # compile_program may have prewarmed the memo
    path = _entry_for(cp)
    if os.path.isfile(path):  # prewarm may have written the entry
        os.unlink(path)
    os.makedirs(path, exist_ok=True)  # open() -> IsADirectoryError
    gen, hits, misses = get_generated(cp.program, 4, True)
    assert misses >= 1  # the unreadable class regenerated
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, _run(cp, None, "event", codegen=True),
                      "unreadable-entry")


def test_vectorize_keys_are_distinct(codegen_tmp):
    """vec on/off generate under different keys — a stale-entry mixup
    between the two would silently skew charges."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    a, _, _ = get_generated(cp.program, 4, True)
    b, _, _ = get_generated(cp.program, 4, False)
    assert a.key != b.key
    assert a is not b


# ---------------------------------------------------------------------------
# demotion and --strict
# ---------------------------------------------------------------------------


def test_demotion_falls_back_and_traces(codegen_tmp, monkeypatch):
    """An emitter-unsupported construct demotes that procedure to the
    interpreter — bit-identical results, counted in RunStats, and a
    traced codegen-demotion decision."""
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Do,))
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    tracer = Tracer()
    gen_res = _run(cp, None, "event", codegen=True, trace=tracer)
    assert gen_res.stats.codegen_demotions > 0
    names = [e["name"] for e in tracer.host_events
             if e["kind"] == "compile.decision"]
    assert "codegen-demotion" in names
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", ())
    reset_memory()
    ref = _run(cp, None, "event", codegen=False)
    _assert_identical(ref, gen_res, "demoted-vs-interpreter")


def test_partial_demotion_mixes_paths(codegen_tmp, monkeypatch):
    """Demoting only some procedures leaves the rest generated; the
    mid-run handoff — generated main calling an interpreter-demoted
    callee — must stay bit-identical too, in both dispatch orders."""
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.If,))
    init = make_dgefa_init(16)
    cp = compile_program(dgefa_source(16),
                         Options(nprocs=4, mode=Mode.INTER))
    gen, _, _ = get_generated(cp.program, 4, True)
    demoted = {proc for _, _, proc, _ in gen.demotions}
    all_procs = {u.name for u in cp.program.units}
    assert demoted and demoted < all_procs  # strictly partial
    assert cp.program.main.name not in demoted  # main stays generated
    gen_coop = _run(cp, init, "coop", codegen=True)
    gen_event = _run(cp, init, "event", codegen=True)
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", ())
    reset_memory()
    ref = _run(cp, init, "coop", codegen=False)
    _assert_identical(ref, gen_coop, "partial-demotion coop")
    _assert_identical(ref, gen_event, "partial-demotion event")


def test_strict_escalates_demotion(codegen_tmp, monkeypatch):
    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Do,))
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    with pytest.raises(CodegenError, match="demoted under --strict"):
        get_generated(cp.program, 4, True, strict=True)
    # non-strict proceeds on the same (memoized) generation
    gen, _, _ = get_generated(cp.program, 4, True)
    assert gen.demotions


def test_strict_compile_fails_on_demotion(codegen_tmp, monkeypatch):
    """Options.strict turns a codegen demotion into a compile error
    (the driver prewarm path)."""
    from repro.core.driver import CompileError

    monkeypatch.setattr(emit_mod, "UNSUPPORTED_STMTS", (A.Do,))
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
    with pytest.raises(CompileError, match="demoted under --strict"):
        compile_program(stencil1d_source(96, 3),
                        Options(nprocs=4, mode=Mode.INTER, strict=True))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_codegen_flags(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cache"))
    reset_memory()
    f = tmp_path / "prog.fd"
    f.write_text(stencil1d_source(64, 2))
    rc = main([str(f), "--run", "--no-text", "--report", "--codegen"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "codegen=" in out and "compile-cache=" in out
    rc = main([str(f), "--run", "--no-text", "--no-codegen"])
    assert rc == 0
    dump = tmp_path / "gen.py"
    rc = main([str(f), "--no-text", "--codegen-dump", str(dump)])
    assert rc == 0
    text = dump.read_text()
    assert "rank class" in text and "UNITS" in text
    compile(text, str(dump), "exec")  # dump is well-formed python
    reset_memory()
