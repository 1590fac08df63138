from decimal import Decimal, localcontext

import numpy as np
import pytest

from fairedge.link import (
    ChannelState,
    DeadlineInfeasibleError,
    EnergyModel,
    InsecureLinkError,
    LinkAllocation,
    OffloadDemand,
    eavesdropper_rate,
    local_inference_energy,
    min_bandwidth_for_deadline,
    offload_energy,
    offload_time,
    secrecy_rate,
    uplink_rate,
)


def channel(gain=1e-6, noise=1e-13, eav_gain=0.0, eav_noise=1e-13):
    return ChannelState(
        gain=gain,
        noise_psd=noise,
        eavesdropper_gain=eav_gain,
        eavesdropper_noise_psd=eav_noise,
    )


def shannon_reference(bandwidth, gain, power, noise):
    """b*log2(1 + gP/(N0*b)) in 50-digit decimal arithmetic on the exact float inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        b, g, p, n = map(Decimal, (bandwidth, gain, power, noise))
        return float(b * (1 + g * p / (n * b)).ln() / Decimal(2).ln())


class TestUplinkRate:
    def test_unit_snr_per_hz(self):
        # g*p/(sigma^2*b) == 1 at b == 1 gives exactly one bit/s
        ch = channel(gain=1.0, noise=1.0)
        assert uplink_rate(LinkAllocation(1.0, 1.0), ch) == pytest.approx(1.0)

    def test_zero_power_is_zero_rate(self):
        assert uplink_rate(LinkAllocation(1e6, 0.0), channel()) == 0.0

    def test_zero_bandwidth_uses_limit_convention(self):
        assert uplink_rate(LinkAllocation(0.0, 0.1), channel()) == 0.0

    def test_scalar_value_against_direct_formula(self):
        rate = uplink_rate(LinkAllocation(2e6, 0.1), channel(gain=1e-6, noise=1e-13))
        assert rate == pytest.approx(shannon_reference(2e6, 1e-6, 0.1, 1e-13), rel=4e-16)
        assert rate == pytest.approx(1169925.0014423123, rel=1e-12)

    def test_monotone_in_power_and_bandwidth(self):
        ch = channel()
        bands = np.linspace(1e4, 2e6, 40)
        powers = np.linspace(1e-4, 0.2, 40)
        for p in powers[::8]:
            rates = [uplink_rate(LinkAllocation(b, p), ch) for b in bands]
            assert all(b >= a for a, b in zip(rates, rates[1:]))
        for b in bands[::8]:
            rates = [uplink_rate(LinkAllocation(b, p), ch) for p in powers]
            assert all(y >= x for x, y in zip(rates, rates[1:]))


class TestEavesdropperRate:
    def test_zero_gain_is_zero_rate(self):
        assert eavesdropper_rate(LinkAllocation(1e6, 0.1), channel(eav_gain=0.0)) == 0.0

    def test_identical_channel_matches_uplink(self):
        ch = channel(gain=1e-6, eav_gain=1e-6)
        alloc = LinkAllocation(5e5, 0.05)
        assert eavesdropper_rate(alloc, ch) == uplink_rate(alloc, ch)

    def test_scalar_value_against_direct_formula(self):
        ch = channel(eav_gain=1e-7)
        rate = eavesdropper_rate(LinkAllocation(1e6, 0.05), ch)
        assert rate == pytest.approx(shannon_reference(1e6, 1e-7, 0.05, 1e-13), rel=4e-16)
        assert rate == pytest.approx(70389.327891398, rel=1e-12)


class TestSecrecyRate:
    def test_no_eavesdropper_equals_uplink(self):
        ch = channel(eav_gain=0.0)
        alloc = LinkAllocation(1e6, 0.1)
        assert secrecy_rate(alloc, ch) == uplink_rate(alloc, ch)

    def test_identical_ratios_give_exact_zero(self):
        ch = channel(gain=1e-6, eav_gain=1e-6)
        assert secrecy_rate(LinkAllocation(1e6, 0.1), ch) == 0.0

    def test_dominant_eavesdropper_gives_exact_zero(self):
        ch = channel(gain=1e-6, eav_gain=2e-6)
        assert secrecy_rate(LinkAllocation(1e6, 0.1), ch) == 0.0

    def test_bounded_by_uplink_on_grid(self):
        ch = channel(eav_gain=3e-7)
        for b in np.linspace(1e4, 2e6, 100):
            for p in np.linspace(1e-3, 0.2, 10):
                alloc = LinkAllocation(float(b), float(p))
                r_se = secrecy_rate(alloc, ch)
                assert 0.0 <= r_se <= uplink_rate(alloc, ch)

    def test_non_decreasing_in_power_under_advantage(self):
        ch = channel(eav_gain=3e-7)
        for b in np.linspace(1e4, 2e6, 100):
            rates = [
                secrecy_rate(LinkAllocation(float(b), float(p)), ch)
                for p in np.linspace(1e-3, 0.2, 100)
            ]
            assert all(y >= x - 1e-9 for x, y in zip(rates, rates[1:]))


class TestOffload:
    def test_time_is_size_over_secure_rate(self):
        # unit SNR per Hz over a 1e4 Hz band: secure rate exactly 1e4 bits/s
        ch = channel(gain=1e4, noise=1.0, eav_gain=0.0, eav_noise=1.0)
        alloc = LinkAllocation(1e4, 1.0)
        demand = OffloadDemand(feature_size_bits=1e4, deadline_s=10.0)
        assert secrecy_rate(alloc, ch) == pytest.approx(1e4)
        assert offload_time(demand, alloc, ch) == pytest.approx(1.0)

    def test_energy_is_power_times_time(self):
        ch = channel(gain=2e4, noise=1.0)
        alloc = LinkAllocation(1e4, 0.5)  # same unit SNR per Hz at half power
        demand = OffloadDemand(feature_size_bits=1e4, deadline_s=10.0)
        t = offload_time(demand, alloc, ch)
        assert t == pytest.approx(1.0)
        assert offload_energy(demand, alloc, ch) == pytest.approx(0.5 * t)

    def test_insecure_link_raises_specific_error(self):
        ch = channel(gain=1e-6, eav_gain=2e-6)
        demand = OffloadDemand(feature_size_bits=1e4, deadline_s=1.0)
        with pytest.raises(InsecureLinkError):
            offload_time(demand, LinkAllocation(1e6, 0.1), ch)

    def test_time_times_rate_recovers_size(self):
        rng = np.random.default_rng(3)
        demand = OffloadDemand(feature_size_bits=2.5e4, deadline_s=5.0)
        for _ in range(200):
            ch = channel(gain=10 ** rng.uniform(-7, -5), eav_gain=10 ** rng.uniform(-9, -7.5))
            alloc = LinkAllocation(float(rng.uniform(1e4, 2e6)), float(rng.uniform(1e-3, 0.2)))
            rate = secrecy_rate(alloc, ch)
            if rate <= 0.0:
                continue
            t = offload_time(demand, alloc, ch)
            assert t * rate == pytest.approx(demand.feature_size_bits, rel=1e-12)


class TestLocalEnergy:
    def test_zero_cost_per_access(self):
        assert local_inference_energy(EnergyModel(0.0, (100, 200))) == 0.0

    def test_arithmetic(self):
        model = EnergyModel(1e-9, (100, 200, 300))
        assert local_inference_energy(model) == pytest.approx(6e-7)

    def test_empty_counts(self):
        assert local_inference_energy(EnergyModel(1e-9, ())) == 0.0


class TestMinBandwidthForDeadline:
    def test_solution_is_binding(self):
        ch = channel(eav_gain=0.0)
        demand = OffloadDemand(feature_size_bits=2e4, deadline_s=0.05)
        b = min_bandwidth_for_deadline(ch, 0.1, demand, 2e6)
        rate = secrecy_rate(LinkAllocation(b, 0.1), ch)
        # deadline met exactly at the returned bandwidth
        assert demand.feature_size_bits / rate <= demand.deadline_s * (1 + 1e-6)
        assert rate * demand.deadline_s == pytest.approx(demand.feature_size_bits, rel=1e-6)
        # shaving a sliver of bandwidth violates the deadline
        shaved = secrecy_rate(LinkAllocation(b * (1 - 1e-6), 0.1), ch)
        assert shaved * demand.deadline_s < demand.feature_size_bits

    def test_solution_with_eavesdropper_present(self):
        ch = channel(eav_gain=2e-7)
        demand = OffloadDemand(feature_size_bits=1.5e4, deadline_s=0.1)
        b = min_bandwidth_for_deadline(ch, 0.1, demand, 2e6)
        assert 0.0 < b <= 2e6
        rate = secrecy_rate(LinkAllocation(b, 0.1), ch)
        assert rate * demand.deadline_s >= demand.feature_size_bits * (1 - 1e-9)

    def test_huge_demand_is_infeasible(self):
        ch = channel(eav_gain=0.0)
        demand = OffloadDemand(feature_size_bits=1e12, deadline_s=0.01)
        with pytest.raises(DeadlineInfeasibleError):
            min_bandwidth_for_deadline(ch, 0.1, demand, 1e4)

    def test_dominant_eavesdropper_is_insecure_not_deadline(self):
        ch = channel(gain=1e-6, eav_gain=2e-6)
        demand = OffloadDemand(feature_size_bits=1e4, deadline_s=1.0)
        with pytest.raises(InsecureLinkError):
            min_bandwidth_for_deadline(ch, 0.1, demand, 2e6)

    def test_wide_band_channel_bisects_to_the_minimal_bandwidth(self):
        # Far above gP/N0 the rate b*log2(1 + gP/(N0*b)) loses precision and
        # dips between probe points; through log1p the secure rate keeps rising.
        ch = ChannelState(1e-9, 1e-13, 5e-10, 1e-13)
        power, cap = 1e-3, 1e9
        probe = [secrecy_rate(LinkAllocation(cap * (i + 1) / 64, power), ch) for i in range(64)]
        assert all(b >= a for a, b in zip(probe, probe[1:]))
        required = 0.5 * secrecy_rate(LinkAllocation(cap, power), ch)
        demand = OffloadDemand(feature_size_bits=required, deadline_s=1.0)
        b = min_bandwidth_for_deadline(ch, power, demand, cap)
        assert 0.0 < b <= cap
        assert secrecy_rate(LinkAllocation(b, power), ch) >= required
        assert secrecy_rate(LinkAllocation(b * (1 - 1e-6), power), ch) < required

    def test_secure_rate_never_decreases_in_bandwidth(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            gain = 10 ** rng.uniform(-9, -3)
            ch = channel(gain=gain, eav_gain=gain * rng.uniform(0.05, 0.95))
            power, cap = 10 ** rng.uniform(-3, 1), 10 ** rng.uniform(4, 9)
            rates = [
                secrecy_rate(LinkAllocation(cap * (i + 1) / 64, power), ch) for i in range(64)
            ]
            assert all(b >= a for a, b in zip(rates, rates[1:])), (gain, power, cap)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            min_bandwidth_for_deadline(
                channel(), 0.0, OffloadDemand(feature_size_bits=1e4, deadline_s=1.0), 2e6
            )
