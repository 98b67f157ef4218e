"""Fully-associative TLB with LRU replacement.

Tilera cores have private I/D TLBs; the paper flushes them alongside the
private L1s on every MI6 enclave entry/exit ("the TLBs are flushed using
Tilera specific user commands").  We model a single data TLB per core —
the purge and locality effects are identical for the instruction side.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.config import TlbConfig


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Tlb:
    """LRU translation lookaside buffer over virtual page numbers.

    :meth:`access` is the scalar oracle's per-event rule; the flush,
    :meth:`lru_entries` and ``stats`` are the surface the vector
    engine's :class:`repro.arch.native.NativeTlb` views share.
    """

    def __init__(self, config: TlbConfig, name: str = "tlb"):
        self.config = config
        self.name = name
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.stats = TlbStats()

    def access(self, vpage: int) -> bool:
        """Look up a virtual page; returns True on hit."""
        entries = self._entries
        if vpage in entries:
            entries.move_to_end(vpage)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entries) >= self.config.entries:
            entries.popitem(last=False)
        entries[vpage] = None
        return False

    def lru_entries(self) -> "list[int]":
        """Resident pages ordered least- to most-recently used."""
        return [int(p) for p in self._entries]

    def invalidate_all(self) -> int:
        """Flush the TLB; returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.flushes += 1
        return dropped
