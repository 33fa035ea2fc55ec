"""Run-time data remapping library (§6).

Fortran D "assumes the existence of a collection of library routines that
can be invoked to remap arrays for different data decompositions".  This
module is that library for the simulated machine:

* :func:`remap_array_y` — physical redistribution: every node sends the
  elements it owns under the old distribution to their owners under the
  new one (all-to-all personalized exchange), then records the new
  distribution on the array.  A generator: node programs drive it with
  ``yield from``.
* :func:`mark_array` — the §6.3 array-kill optimization: when the
  array's values are dead, remap *in place* by only changing the
  recorded distribution (zero data motion).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.rsd import RSD, Range
from ..dist import Distribution

if TYPE_CHECKING:  # pragma: no cover
    from ..interp.arrays import FArray
    from ..machine.machine import ProcContext


def _rsd_to_subs(section: RSD) -> list:
    out = []
    for d in section.dims:
        assert isinstance(d, Range)
        out.append((d.lo, d.hi, d.step))
    return out


def transfer_sections(
    old: Distribution, new: Distribution, src: int, dst: int
) -> list[RSD]:
    """Sections owned by *src* under *old* that *dst* owns under *new*."""
    out: list[RSD] = []
    for a in old.local_index_sets(src):
        for b in new.local_index_sets(dst):
            piece = a.intersect(b)
            if not piece.empty:
                out.append(piece)
    return out


def _build_outgoing(
    ctx: "ProcContext", arr: "FArray", old: Distribution, new: Distribution
) -> tuple[dict[int, list], int]:
    """Read out the sections this rank must ship: ``{dst: [(subs,
    payload), ...]}`` plus the total outgoing byte count."""
    me = ctx.rank
    outgoing: dict[int, list] = {}
    out_bytes = 0
    for dst in range(ctx.nprocs):
        if dst == me:
            continue
        pieces = transfer_sections(old, new, me, dst)
        if not pieces:
            continue
        bundle = []
        for piece in pieces:
            subs = _rsd_to_subs(piece)
            payload = arr.read_section(subs)
            bundle.append((subs, payload))
            out_bytes += payload.size * arr.element_bytes
        outgoing[dst] = bundle
    return outgoing, out_bytes


def _apply_incoming(
    ctx: "ProcContext", arr: "FArray", incoming: dict[int, list],
    new: Distribution, out_bytes: int,
) -> None:
    """Write received sections and record the new distribution.

    Each rank records its own outgoing volume; summed over ranks that
    equals the total data moved (what :func:`_total_moved` computes),
    without the O(P^2) all-pairs section scan that dominated large-P
    runs.  Rank 0 counts the remap operation itself."""
    for _src, bundle in incoming.items():
        for subs, payload in bundle:
            arr.write_section(subs, payload)
    arr.dist = new
    ctx.stats.record_remap(out_bytes, count=1 if ctx.rank == 0 else 0)


def _remap_prologue(
    ctx: "ProcContext", arr: "FArray", new: Distribution
) -> Distribution | None:
    """Common entry: returns the effective old distribution, or None
    when the remap is mapping-identical (recorded in place, no data
    motion)."""
    old = arr.dist
    if old is None:
        old = Distribution.replicated(arr.bounds, ctx.nprocs)
    if old.same_mapping(new):
        arr.dist = new
        return None
    return old


def remap_array_y(ctx: "ProcContext", arr: "FArray", new: Distribution,
                  origin: str = None):
    """Physically redistribute *arr* to *new* (collective; a generator
    — the all-to-all exchange suspends the rank until every rank has
    entered it)."""
    old = _remap_prologue(ctx, arr, new)
    if old is None:
        return
    outgoing, out_bytes = _build_outgoing(ctx, arr, old, new)
    incoming = yield from ctx.exchange_y(outgoing, out_bytes, origin=origin)
    _apply_incoming(ctx, arr, incoming, new, out_bytes)


def remap_array(ctx: "ProcContext", arr: "FArray", new: Distribution,
                origin: str = None):
    """Same as :func:`remap_array_y`."""
    # a distinct function, not an alias: perfbench/layers.py wraps
    # remap_array and remap_array_y one by one
    return remap_array_y(ctx, arr, new, origin=origin)


def mark_array(arr: "FArray", new: Distribution) -> None:
    """Remap in place (array values dead): no data motion, no cost."""
    arr.dist = new


def _total_moved(
    old: Distribution, new: Distribution, nprocs: int, elem_bytes: int
) -> int:
    total = 0
    for src in range(nprocs):
        for dst in range(nprocs):
            if src == dst:
                continue
            for piece in transfer_sections(old, new, src, dst):
                total += piece.count * elem_bytes
    return total
