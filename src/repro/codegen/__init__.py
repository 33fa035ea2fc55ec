"""JIT node-program code generation.

The compiler's whole premise (paper §5) is that each processor runs an
explicit SPMD *node program*; this package makes that literal.  For a
compiled program we emit real Python modules — one per **rank class**
(edge ranks specialize their boundary guards, interior ranks share one
module) — containing numpy slice assignments for provably-affine loop
nests, scalar loops otherwise, and the compiler-placed message calls,
then ``compile()`` them once and cache the source on disk
(:mod:`repro.codegen.cache`).  Execution stays bit-identical to the
interpreter: same virtual-clock charges in the same order, same
communication schedule, same RunStats.

Each procedure is emitted once: as a generator if it may block, as a
plain function otherwise.  Any procedure the emitter cannot lower
**demotes** to the interpreter's closures for that procedure only;
demotions are reported per (rank class, variant, procedure, cause) —
the variant is ``event`` for a generator, ``node`` for a plain
function — so the driver can trace them and ``--strict`` can turn them
into hard errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..interp.interpreter import find_blocking_units
from ..lang import ast as A
from . import cache as _cache
from .emit import emit_module
from .runtime import NodeRt

__all__ = [
    "CodegenError", "GeneratedModule", "GeneratedProgram", "NodeRt",
    "enabled", "get_generated", "rank_classes", "reset_memory",
    "GEN_COUNTS",
]


class CodegenError(Exception):
    """Raised under ``--strict`` when any procedure demoted."""


def enabled(override: Optional[bool] = None) -> bool:
    """Codegen on/off: explicit argument wins, else ``REPRO_CODEGEN``
    (default on)."""
    if override is not None:
        return override
    return os.environ.get("REPRO_CODEGEN", "1").lower() \
        not in ("0", "false", "no", "off")


def rank_classes(nprocs: int) -> list[tuple[str, int, int]]:
    """Partition ranks into classes sharing one generated module.

    Boundary ranks get their own class so guards like
    ``if (my$p .gt. 0)`` fold away statically; every interior rank
    shares the ``mid`` module."""
    if nprocs <= 1:
        return [("solo", 0, 0)]
    if nprocs == 2:
        return [("lo", 0, 0), ("hi", 1, 1)]
    return [("lo", 0, 0), ("mid", 1, nprocs - 2),
            ("hi", nprocs - 1, nprocs - 1)]


#: generation-activity counters (benches assert warm runs do no work)
GEN_COUNTS = {"generated": 0, "disk": 0, "memory": 0}

#: in-process memo: one GeneratedProgram per (key, nprocs, vectorize)
_memory: dict[str, "GeneratedProgram"] = {}


def reset_memory() -> None:
    """Drop the in-process memo and zero :data:`GEN_COUNTS` (tests)."""
    _memory.clear()
    for k in GEN_COUNTS:
        GEN_COUNTS[k] = 0


class GeneratedModule:
    """One exec'd node-program module for one rank class."""

    __slots__ = ("cls", "source", "units", "blocking", "demoted")

    def __init__(self, cls: str, source: str, ns: dict) -> None:
        self.cls = cls
        self.source = source
        # a poisoned entry that parses but lacks the tables raises
        # KeyError here; the loader treats that as a miss
        self.units = ns["UNITS"]
        self.blocking = ns["BLOCKING"]
        self.demoted = ns["DEMOTED"]


class _FallbackModule:
    """Stands in when generation itself failed: every procedure
    demotes, the run proceeds on the interpreter."""

    __slots__ = ("cls", "source", "units", "blocking", "demoted")

    def __init__(self, cls: str, cause: str, blocking: set[str]) -> None:
        self.cls = cls
        self.source = f"# generation failed: {cause}\n"
        self.units = {}
        self.blocking = frozenset(blocking)
        self.demoted = {"*": cause}


@dataclass
class GeneratedProgram:
    """All rank-class modules for one (program, nprocs, options)."""

    nprocs: int
    key: str
    vectorize: bool
    #: class name -> (rlo, rhi, module)
    modules: dict[str, tuple[int, int, object]]
    #: (rank class, variant, procedure, cause)
    demotions: list[tuple[str, str, str, str]] = field(default_factory=list)

    def module_for(self, rank: int):
        for rlo, rhi, mod in self.modules.values():
            if rlo <= rank <= rhi:
                return mod
        raise ValueError(f"rank {rank} outside 0..{self.nprocs - 1}")

    def dump(self) -> str:
        """All generated sources, concatenated (``--codegen-dump``)."""
        parts = []
        for cls, (rlo, rhi, mod) in self.modules.items():
            parts.append(f"# {'=' * 66}\n# rank class {cls!r} "
                         f"(ranks {rlo}..{rhi})\n# {'=' * 66}\n")
            parts.append(mod.source)
        return "\n".join(parts)


def _exec_module(cls: str, src: str, stem: str) -> Optional[GeneratedModule]:
    try:
        ns: dict = {}
        exec(compile(src, f"<repro-codegen:{stem}>", "exec"), ns)
        return GeneratedModule(cls, src, ns)
    except Exception:
        return None  # poisoned body: regenerate


def get_generated(
    program: A.Program,
    nprocs: int,
    vectorize: bool,
    strict: bool = False,
) -> tuple[GeneratedProgram, int, int]:
    """Return the generated node program plus (cache hits, misses).

    Resolution per rank class: in-process memo, then disk, then emit
    (storing back to disk).  ``strict`` escalates any demotion to
    :class:`CodegenError`."""
    text = repr(program)  # deterministic content-bearing form
    key = _cache.program_key(text, nprocs, vectorize)
    memo = _memory.get(key)
    if memo is not None:
        GEN_COUNTS["memory"] += len(memo.modules)
        if strict and memo.demotions:
            raise CodegenError(_strict_message(memo))
        return memo, len(memo.modules), 0

    modules: dict[str, tuple[int, int, object]] = {}
    demotions: list[tuple[str, str, str, str]] = []
    hits = misses = 0
    for cls, rlo, rhi in rank_classes(nprocs):
        stem = _cache.entry_stem(key, nprocs, vectorize, cls)
        header = _cache.entry_header(stem)
        mod = None
        src = _cache.load(stem)
        if src is not None:
            mod = _exec_module(cls, src, stem)
        if mod is not None:
            GEN_COUNTS["disk"] += 1
            hits += 1
        else:
            misses += 1
            try:
                src = emit_module(program, nprocs, cls, rlo, rhi,
                                  vectorize, header)
                mod = _exec_module(cls, src, stem)
                if mod is None:
                    raise ValueError("generated module failed to load")
                GEN_COUNTS["generated"] += 1
                _cache.store(stem, src)
            except Exception as ex:  # never fail the run
                mod = _FallbackModule(cls, f"{type(ex).__name__}: {ex}",
                                      find_blocking_units(program))
        modules[cls] = (rlo, rhi, mod)
        for proc, cause in mod.demoted.items():
            variant = "event" if proc in mod.blocking else "node"
            demotions.append((cls, variant, proc, cause))

    gen = GeneratedProgram(nprocs, key, vectorize, modules, demotions)
    _memory[key] = gen
    if strict and demotions:
        raise CodegenError(_strict_message(gen))
    return gen, hits, misses


def _strict_message(gen: GeneratedProgram) -> str:
    rows = ", ".join(
        f"{proc}[{cls}/{variant}]: {cause}"
        for cls, variant, proc, cause in gen.demotions
    )
    return f"codegen demoted under --strict: {rows}"
