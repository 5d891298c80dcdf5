"""Margin-gated reordering of the primary ranked list by secondary ranks.

Repeated bubble passes walk pairs ``(position i, position i+j)`` of the
working primary list. A pair is swapped when the secondary list disagrees
strongly enough: with ``a``/``b`` the 1-based secondary ranks of the two
objects, the swap fires iff ``a > b + alpha + j``. Larger ``alpha`` trusts
the primary list more; at ``alpha = eta`` the gap can never be exceeded
(``a - b <= eta - 1 < eta + j``), so the primary order survives untouched.

Objects missing from the secondary list take rank ``eta + 1``, treating them
as weakly dis-preferred without forcing swaps among themselves. Passes repeat
until none fires, with a hard cap of ``eta**2`` passes.

The ranked-list types live here rather than in the matcher, which imports
this module, so the two modules import in one direction only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class RankedEntry(NamedTuple):
    object_id: str
    image_id: str
    score: float


@dataclass(frozen=True)
class RankedList:
    """Best-first, object-deduplicated top-eta list."""

    entries: tuple[RankedEntry, ...]
    eta: int

    def __post_init__(self) -> None:
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        # the matcher's and fuse's lists hold RankedEntry already
        entries = tuple(e if isinstance(e, RankedEntry) else RankedEntry(*e)
                        for e in self.entries)
        if len(entries) > self.eta:
            raise ValueError(f"{len(entries)} entries exceed eta={self.eta}")
        objects = [e.object_id for e in entries]
        if len(set(objects)) != len(objects):
            raise ValueError("duplicate object_id in ranked list")
        object.__setattr__(self, "entries", entries)

    def object_ids(self) -> list[str]:
        return [e.object_id for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FusionParams:
    alpha: int
    eta: int

    def __post_init__(self) -> None:
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if not 0 <= self.alpha <= self.eta:
            raise ValueError(f"alpha={self.alpha} out of range [0, {self.eta}]")


def fuse(v_pri: RankedList, v_sec: RankedList, params: FusionParams) -> RankedList:
    """Reorder ``v_pri`` using ``v_sec`` ranks; entries keep their scores."""
    eta = params.eta
    alpha = params.alpha
    # each list is object-deduplicated already, but may be of another eta
    for name, lst in (("primary", v_pri), ("secondary", v_sec)):
        if len(lst) > eta:
            raise ValueError(f"{name} list length {len(lst)} exceeds eta={eta}")

    sec_rank = {obj: pos for pos, obj in enumerate(v_sec.object_ids(), start=1)}
    absent = eta + 1
    working = list(v_pri.entries)
    # each entry's secondary rank, swapped together with the entries
    ranks = [sec_rank.get(entry.object_id, absent) for entry in working]
    n = len(working)
    # pairs past the end of the list (i + j > n) never swap: stop at n, not eta
    last = min(eta, n)
    for _ in range(eta * eta):
        swapped = False
        # the pair (i, i + j) at positions a = i - 1 and b = i + j - 1, so
        # j = b - a, swaps iff ranks[a] > ranks[b] + alpha + b - a
        for a in range(min((eta + 1) // 2, n) - 1):
            gate = ranks[a] - alpha + a
            for b in range(a + 1, last):
                if gate > ranks[b] + b:
                    ranks[a], ranks[b] = ranks[b], ranks[a]
                    working[a], working[b] = working[b], working[a]
                    gate = ranks[a] - alpha + a
                    swapped = True
        if not swapped:
            break

    return RankedList(entries=tuple(working), eta=eta)
