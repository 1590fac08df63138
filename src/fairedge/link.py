"""Radio and energy models for the secure FDMA uplink.

Rates follow the Shannon capacity of the allocated band; the secure rate is
the non-negative excess of the legitimate rate over an eavesdropper that
observes the same band at the same transmit power.  A zero secure rate means
the link is insecure and offloading is refused outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class LinkError(Exception):
    """Base for link-level feasibility failures."""


class InsecureLinkError(LinkError):
    """The eavesdropper's channel advantage forces a zero secure rate."""


class DeadlineInfeasibleError(LinkError):
    """No bandwidth within the cap meets the transfer deadline."""


@dataclass(frozen=True)
class ChannelState:
    """Linear channel gains and noise power spectral densities (W/Hz)."""

    gain: float
    noise_psd: float
    eavesdropper_gain: float
    eavesdropper_noise_psd: float

    def __post_init__(self):
        if self.gain < 0.0 or self.eavesdropper_gain < 0.0:
            raise ValueError("channel gains must be >= 0")
        if self.noise_psd <= 0.0 or self.eavesdropper_noise_psd <= 0.0:
            raise ValueError("noise PSDs must be > 0")

    @property
    def eavesdropper_dominant(self) -> bool:
        """True when the eavesdropper's gain-to-noise ratio is at least ours."""
        return self.eavesdropper_gain * self.noise_psd >= self.gain * self.eavesdropper_noise_psd


@dataclass(frozen=True)
class LinkAllocation:
    bandwidth_hz: float
    power_w: float

    def __post_init__(self):
        if self.bandwidth_hz < 0.0 or self.power_w < 0.0:
            raise ValueError("bandwidth and power must be >= 0")


@dataclass(frozen=True)
class EnergyModel:
    """Local inference energy: cost per memory access times accesses per block."""

    joules_per_access: float
    access_counts: tuple[int, ...]

    def __post_init__(self):
        if self.joules_per_access < 0.0:
            raise ValueError("joules_per_access must be >= 0")
        object.__setattr__(self, "access_counts", tuple(int(c) for c in self.access_counts))
        if any(c < 0 for c in self.access_counts):
            raise ValueError("access counts must be >= 0")


@dataclass(frozen=True)
class OffloadDemand:
    feature_size_bits: float
    deadline_s: float

    def __post_init__(self):
        if self.feature_size_bits <= 0.0 or self.deadline_s <= 0.0:
            raise ValueError("feature size and deadline must be > 0")


_LN2 = math.log(2.0)


def uplink_rate(alloc: LinkAllocation, channel: ChannelState) -> float:
    """Shannon rate in bits/s (zero for a zero band); log1p stays accurate for b >> gP/N0."""
    b = alloc.bandwidth_hz
    if b == 0.0:
        return 0.0
    return b * math.log1p(channel.gain * alloc.power_w / (channel.noise_psd * b)) / _LN2


def eavesdropper_rate(alloc: LinkAllocation, channel: ChannelState) -> float:
    """Shannon rate of the eavesdropper observing the same band and power."""
    b = alloc.bandwidth_hz
    if b == 0.0:
        return 0.0
    snr = channel.eavesdropper_gain * alloc.power_w / (channel.eavesdropper_noise_psd * b)
    return b * math.log1p(snr) / _LN2


def secrecy_rate(alloc: LinkAllocation, channel: ChannelState) -> float:
    """Non-negative secure rate; exactly zero whenever the eavesdropper dominates."""
    if channel.eavesdropper_dominant:
        return 0.0
    return max(0.0, uplink_rate(alloc, channel) - eavesdropper_rate(alloc, channel))


def offload_time(demand: OffloadDemand, alloc: LinkAllocation, channel: ChannelState) -> float:
    """Seconds to push one event's features over the secure rate."""
    rate = secrecy_rate(alloc, channel)
    if rate <= 0.0:
        raise InsecureLinkError("secure rate is zero; transmission refused")
    return demand.feature_size_bits / rate


def offload_energy(demand: OffloadDemand, alloc: LinkAllocation, channel: ChannelState) -> float:
    """Transmit energy in joules for one offloaded event."""
    return alloc.power_w * offload_time(demand, alloc, channel)


def local_inference_energy(model: EnergyModel) -> float:
    """Per-event local inference energy in joules."""
    return model.joules_per_access * sum(model.access_counts)


def _secure_rate_at(bandwidth: float, power: float, channel: ChannelState) -> float:
    return secrecy_rate(LinkAllocation(bandwidth_hz=bandwidth, power_w=power), channel)


def min_bandwidth_for_deadline(
    channel: ChannelState, power_w: float, demand: OffloadDemand, max_bandwidth_hz: float
) -> float:
    """Smallest bandwidth in (0, max] whose secure rate meets the deadline.

    With a = gP/N0 above the eavesdropper's e, the secure rate
    b*log2(1 + a/b) - b*log2(1 + e/b) increases with b: its derivative is
    (f(a/b) - f(e/b))/ln 2, and f(x) = ln(1+x) - x/(1+x) increases.  The
    log1p rates keep that order in floating point, so one bisection on
    (0, max] finds the crossing to a relative 1e-9.  Raises InsecureLinkError
    when the eavesdropper dominates, DeadlineInfeasibleError when even the
    full cap is too slow.
    """
    if power_w <= 0.0:
        raise ValueError("power_w must be > 0")
    if max_bandwidth_hz <= 0.0:
        raise ValueError("max_bandwidth_hz must be > 0")
    if channel.eavesdropper_dominant:
        raise InsecureLinkError("eavesdropper dominates the channel; no secure bandwidth exists")

    required = demand.feature_size_bits / demand.deadline_s
    if _secure_rate_at(max_bandwidth_hz, power_w, channel) < required:
        raise DeadlineInfeasibleError(
            f"secure rate at the bandwidth cap is below the required {required:.6g} bits/s"
        )

    lo, hi = 0.0, max_bandwidth_hz
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _secure_rate_at(mid, power_w, channel) >= required:
            hi = mid
        else:
            lo = mid
    return hi
