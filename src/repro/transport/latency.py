"""Link latency / bandwidth models for the in-memory transport.

The model answers "how long does a frame of *n* bytes take from *src* to
*dst*" — propagation latency plus serialization delay at the link bandwidth.
Experiments sweep these parameters (E4's latency crossover); the transport
both *accounts* the delay (virtual seconds, on the :class:`SimClock`) and
optionally *sleeps* a scaled-down version so wall-clock benchmark timings
show the simulated shape.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

__all__ = [
    "LatencyModel",
    "ZeroLatency",
    "UniformLatency",
    "PerLinkLatency",
]


class LatencyModel(abc.ABC):
    """Computes one-way transfer delay in (virtual) seconds."""

    @abc.abstractmethod
    def delay(self, src: str, dst: str, nbytes: int) -> float:
        """Seconds for *nbytes* from *src* to *dst* (hosts, not URNs)."""


@dataclass(frozen=True)
class ZeroLatency(LatencyModel):
    """Instant network — functional tests."""

    def delay(self, src: str, dst: str, nbytes: int) -> float:
        return 0.0


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Same latency/bandwidth on every link.

    ``latency`` in seconds; ``bandwidth`` in bytes/second (0 = infinite).
    """

    latency: float = 0.0
    bandwidth: float = 0.0

    def delay(self, src: str, dst: str, nbytes: int) -> float:
        if src == dst:
            return 0.0
        transfer = (nbytes / self.bandwidth) if self.bandwidth > 0 else 0.0
        return self.latency + transfer


@dataclass
class PerLinkLatency(LatencyModel):
    """Per-link overrides over a default, keyed by (src, dst) host pairs.

    Link parameters are symmetric unless both directions are set explicitly.
    """

    default_latency: float = 0.0
    default_bandwidth: float = 0.0
    links: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)

    def set_link(self, a: str, b: str, latency: float, bandwidth: float = 0.0, symmetric: bool = True) -> None:
        self.links[(a, b)] = (latency, bandwidth)
        if symmetric:
            self.links[(b, a)] = (latency, bandwidth)

    def delay(self, src: str, dst: str, nbytes: int) -> float:
        if src == dst:
            return 0.0
        latency, bandwidth = self.links.get((src, dst), (self.default_latency, self.default_bandwidth))
        transfer = (nbytes / bandwidth) if bandwidth > 0 else 0.0
        return latency + transfer
