"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of *cycles*; a cycle is a list of
:class:`Job`.  The client runs jobs one at a time (closed loop) until its
time is up, so a run covers one or more cycles.  Every job has a *slot*
naming its place in the cycle; metrics are medians per slot, summed over
the slots of one cycle, so a run that ends mid-cycle still reports one
job list's worth of work.

The seed only chooses things that leave the work volume unchanged: job
order, the spelling of fresh procedure names, which procedure an edit
touches, and the constants an edit writes.  Every compiled source is new
to the process (fresh names or fresh constants), so no compile is served
from the in-process compile or codegen memo.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.apps import (
    adi_source,
    cg_source,
    dgefa_dgesl_source,
    dgefa_pivot_source,
    dgefa_source,
    fig1_source,
    fig4_source,
    fig15_source,
    stencil1d_source,
    stencil2d_source,
    wave_source,
)


@dataclass
class Job:
    """One closed-loop request: compile each of ``sources`` in turn, then
    run the program compiled last.

    The first ``cold`` sources are compiled cold (never-seen procedures);
    every later one is a one-procedure edit of the source before it.
    ``oracle``, when set, caches the sequential reference: jobs sharing it
    compute the same arrays.  ``family`` groups jobs whose simulated
    statistics must be identical.
    """

    slot: str
    sources: list[str]
    nprocs: int
    mode: str
    cold: int
    oracle: Optional[str]
    family: str
    dgefa_n: Optional[int] = None  # run with make_dgefa_init(dgefa_n)


_UNIT = re.compile(
    r"(?im)^[ \t]*(?:(?:real|integer|logical)[ \t]+)?"
    r"(?:program|subroutine|function)[ \t]+(\w+)"
)
_DO = re.compile(r"(?im)^[ \t]*(?:\w+:[ \t]*)?do[ \t]+(\w+)[ \t]*=")


def rename_units(source: str, suffix: str) -> str:
    """Give every procedure a fresh name (``name`` -> ``name<suffix>``):
    the program computes the same arrays, but no procedure text matches
    one compiled before, so the compile is cold at every cache tier."""
    names = _UNIT.findall(source)
    pat = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return pat.sub(lambda m: m.group(1) + suffix, source)


def _unit_spans(source: str) -> list[tuple[str, int, int]]:
    starts = [(m.group(1), m.start()) for m in _UNIT.finditer(source)]
    ends = [s for _, s in starts[1:]] + [len(source)]
    return [(name, s, e) for (name, s), e in zip(starts, ends)]


def loop_units(source: str) -> list[str]:
    """Procedures that own at least one DO loop (edit targets)."""
    return [name for name, s, e in _unit_spans(source)
            if _DO.search(source, s, e)]


def edit_loop_vars(source: str, unit: str, token: str) -> str:
    """A one-procedure edit that keeps the program's meaning: rename
    the DO variables of *unit* (``i`` -> ``i<token>``, first letter kept
    so implicit typing is unchanged)."""
    for name, s, e in _unit_spans(source):
        if name == unit:
            body = source[s:e]
            for var in sorted(set(_DO.findall(body))):
                body = re.sub(rf"\b{re.escape(var)}\b", var + token, body)
            return source[:s] + body + source[e:]
    raise KeyError(unit)


class _Names:
    """Fresh, seeded name suffixes that never repeat in one process."""

    def __init__(self, rng: random.Random) -> None:
        self.tag = "".join(rng.choice("qvwxz") for _ in range(3))
        self.serial = 0

    def __call__(self) -> str:
        self.serial += 1
        return f"{self.tag}{self.serial}"


# ---------------------------------------------------------------------------
# weak-stencil and strong-kernels: cold compiles, one-procedure edits,
# recompiles, run the edited program
# ---------------------------------------------------------------------------

#: (slot, source, nprocs, mode, dgefa_n); both lists are sized so a 35 s
#: run holds about seven job lists
_WEAK_P = 512
WEAK = [
    ("stencil1d", stencil1d_source(16 * _WEAK_P, 10), _WEAK_P, "inter", None),
    ("wave", wave_source(16 * _WEAK_P, 8), _WEAK_P, "inter", None),
]

STRONG = [
    ("adi", adi_source(256), 64, "inter", None),
    ("dgefa", dgefa_source(128), 32, "inter", 128),
    ("cg", cg_source(4096), 128, "inter", None),
    ("dgefa-rtr", dgefa_source(32), 16, "rtr", 32),
]

#: cold compiles per job (the job reports their median) and one-procedure
#: edits recompiled after them, before the run
COLD_PER_JOB = 5
EDITS_PER_JOB = 3


def _edit_cycles(specs, rng: random.Random) -> Iterator[list[Job]]:
    fresh = _Names(rng)
    while True:
        order = list(specs)
        rng.shuffle(order)
        jobs = []
        for slot, src, nprocs, mode, dgefa_n in order:
            sources = [rename_units(src, "_" + fresh())
                       for _ in range(COLD_PER_JOB)]
            for _ in range(EDITS_PER_JOB):
                target = rng.choice(loop_units(sources[-1]))
                sources.append(edit_loop_vars(sources[-1], target, fresh()))
            jobs.append(Job(slot, sources, nprocs, mode, cold=COLD_PER_JOB,
                            oracle=slot, family=slot, dgefa_n=dgefa_n))
        yield jobs


# ---------------------------------------------------------------------------
# compile-edit: the paper programs cold in three modes, then an edit
# session on a procedure chain
# ---------------------------------------------------------------------------

#: (name, source, dgefa_n) — small n: compile time barely depends on it,
#: and run-time resolution at the default sizes runs for tens of seconds
PAPER = [
    ("fig1", fig1_source(32), None),
    ("fig4", fig4_source(16), None),
    ("fig15", fig15_source(32, 2), None),
    ("dgefa", dgefa_source(16), 16),
    ("dgefa_dgesl", dgefa_dgesl_source(16), 16),
    ("dgefa_pivot", dgefa_pivot_source(16), 16),
    ("stencil1d", stencil1d_source(32, 1), None),
    ("stencil2d", stencil2d_source(32, 1), None),
    ("wave", wave_source(32, 1), None),
    ("adi", adi_source(16, 1), None),
    ("cg", cg_source(32, 1), None),
]
MODES = ("inter", "intra", "rtr")
PAPER_P = 16

CHAIN_STAGES = 32
CHAIN_N = 256
CHAIN_P = 4
CHAIN_EDITS = 16


def chain_source(consts: list[str], suffix: str) -> str:
    """A relaxation pipeline of one program and ``len(consts)`` stage
    subroutines; stage k adds ``consts[k]``.  Editing one constant is a
    one-procedure edit that leaves every other procedure untouched."""
    n = CHAIN_N
    parts = [f"program chain{suffix}", f"real x({n}), y({n})",
             "align y(i) with x(i)", "distribute x(block)"]
    parts += [f"call stage{k}{suffix}(x, y)" for k in range(len(consts))]
    parts.append("end")
    for k, c in enumerate(consts):
        parts += [f"subroutine stage{k}{suffix}(x, y)",
                  f"real x({n}), y({n})",
                  f"do i = 2, {n - 1}",
                  f"  y(i) = f(x(i - 1)) + f(x(i + 1)) + {c}",
                  "enddo",
                  f"do i = 1, {n}",
                  "  x(i) = y(i) * 0.5",
                  "enddo",
                  "end"]
    return "\n".join(parts) + "\n"


def _compile_edit_cycles(rng: random.Random) -> Iterator[list[Job]]:
    fresh = _Names(rng)
    serial = 0
    while True:
        cold = [(name, src, mode, dn) for name, src, dn in PAPER
                for mode in MODES]
        rng.shuffle(cold)
        jobs = [Job(f"{name}/{mode}", [rename_units(src, "_" + fresh())],
                    PAPER_P, mode, cold=1, oracle=name,
                    family=f"{name}/{mode}", dgefa_n=dn)
                for name, src, mode, dn in cold]
        suffix = "_" + fresh()
        consts = [f"{k}.0" for k in range(CHAIN_STAGES)]
        src = chain_source(consts, suffix)
        jobs.append(Job("chain/0", [src], CHAIN_P, "inter", cold=1,
                        oracle=None, family="chain"))
        for e in range(1, CHAIN_EDITS + 1):
            serial += 1
            k = rng.randrange(CHAIN_STAGES)
            consts[k] = f"{k}.{serial:05d}"
            src = chain_source(consts, suffix)
            jobs.append(Job(f"chain/{e}", [src], CHAIN_P, "inter",
                            cold=0, oracle=None, family="chain"))
        yield jobs


def cycles(workload: str, seed: int) -> Iterator[list[Job]]:
    """The endless, seeded cycle sequence of *workload*."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "weak-stencil":
        return _edit_cycles(WEAK, rng)
    if workload == "strong-kernels":
        return _edit_cycles(STRONG, rng)
    if workload == "compile-edit":
        return _compile_edit_cycles(rng)
    raise ValueError(f"unknown workload {workload!r}")
