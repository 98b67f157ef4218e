"""Packet-level mesh network with per-link contention.

The performance-critical trace replayer uses analytic hop latencies from
:class:`~repro.arch.mesh.MeshTopology`; this module provides the finer
packet-level model used by the NoC isolation tests, the network-probe
attack harness, and the routing ablation.  Each directed link keeps a
``busy_until`` time: a packet serializes on every link it crosses, so
congestion and the timing interference an attacker could observe are
visible in the arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.arch.mesh import MeshTopology
from repro.arch.routing import route_for_cluster, route_xy, route_yx
from repro.config import NocConfig
from repro.errors import NetworkIsolationViolation


@dataclass
class Packet:
    """One network packet (request or data)."""

    src: int
    dst: int
    size_bytes: int = 64
    domain: str = "any"
    injected_at: int = 0
    arrived_at: int = 0
    path: Tuple[int, ...] = ()

    @property
    def latency(self) -> int:
        return self.arrived_at - self.injected_at

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


@dataclass
class NocStats:
    packets: int = 0
    total_hops: int = 0
    contention_cycles: int = 0
    blocked: int = 0


class MeshNetwork:
    """Mesh interconnect with serialized links and deterministic routing."""

    def __init__(self, topo: MeshTopology, config: Optional[NocConfig] = None):
        self.topo = topo
        self.config = config or NocConfig()
        self._busy: Dict[Tuple[int, int], int] = {}
        self.stats = NocStats()
        self._transits: Dict[int, int] = {}

    def reset(self) -> None:
        self._busy.clear()
        self._transits.clear()
        self.stats = NocStats()

    def send(
        self,
        packet: Packet,
        allowed: Optional[Iterable[int]] = None,
        prefer_yx: bool = False,
    ) -> Packet:
        """Route and deliver a packet; returns it with timing filled in.

        ``allowed`` restricts the tiles the packet may transit (cluster
        containment).  Raises :class:`NetworkIsolationViolation` if no
        deterministic route is contained.
        """
        if allowed is not None:
            path = route_for_cluster(self.topo, packet.src, packet.dst, allowed)
        elif prefer_yx:
            path = route_yx(self.topo, packet.src, packet.dst)
        else:
            path = route_xy(self.topo, packet.src, packet.dst)
        packet.path = tuple(path)

        cfg = self.config
        flits = max(1, -(-packet.size_bytes // cfg.link_width_bytes))
        t = packet.injected_at
        for a, b in zip(path, path[1:]):
            link = (a, b)
            free_at = self._busy.get(link, 0)
            start = t if t >= free_at else free_at
            self.stats.contention_cycles += start - t
            self._busy[link] = start + flits
            t = start + cfg.hop_latency + cfg.router_latency
            self._transits[b] = self._transits.get(b, 0) + 1
        packet.arrived_at = t
        self.stats.packets += 1
        self.stats.total_hops += packet.hops
        return packet

    def try_send(
        self, packet: Packet, allowed: Optional[Iterable[int]] = None
    ) -> Optional[Packet]:
        """Like :meth:`send` but returns None instead of raising."""
        try:
            return self.send(packet, allowed=allowed)
        except NetworkIsolationViolation:
            self.stats.blocked += 1
            return None

    def transit_count(self, tile: int) -> int:
        """Number of packets that crossed ``tile``'s router (excluding
        injections) — what a timing probe on that router observes."""
        return self._transits.get(tile, 0)
