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
        entries = tuple(RankedEntry(*e) for e in self.entries)
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
    n = len(working)

    # pairs past the end of the list (i + j > n) never swap: stop at n, not eta
    for _ in range(eta * eta):
        swapped = False
        i = 1
        while i < min(eta / 2, n):
            for j in range(1, min(eta, n) - i + 1):
                a = sec_rank.get(working[i - 1].object_id, absent)
                b = sec_rank.get(working[i + j - 1].object_id, absent)
                if a > b + alpha + j:
                    working[i - 1], working[i + j - 1] = working[i + j - 1], working[i - 1]
                    swapped = True
            i += 1
        if not swapped:
            break

    return RankedList(entries=tuple(working), eta=eta)
