"""Tests for the cryogenic link components (repro.link)."""

import numpy as np
import pytest

from repro.link.cable import CryogenicCable
from repro.link.channel import BinaryChannel, link_budget_channel
from repro.link.driver import SuzukiStackDriver
from repro.link.receiver import CmosReceiver


class TestDriver:
    def test_nominal_levels(self):
        driver = SuzukiStackDriver()
        assert driver.output_high_mv() == 20.0
        assert driver.output_low_mv() == pytest.approx(0.4)

    def test_swing_degrades_with_deviation(self):
        driver = SuzukiStackDriver()
        assert driver.output_high_mv(0.1) < driver.output_high_mv(0.0)
        assert driver.eye_opening_mv(0.2) < driver.eye_opening_mv(0.0)

    def test_swing_never_below_low(self):
        driver = SuzukiStackDriver()
        assert driver.output_high_mv(5.0) >= driver.low_mv

    def test_validation(self):
        with pytest.raises(ValueError):
            SuzukiStackDriver(swing_mv=-1.0)
        with pytest.raises(ValueError):
            SuzukiStackDriver(swing_mv=1.0, low_mv=2.0)


class TestCable:
    def test_gain_from_attenuation(self):
        cable = CryogenicCable(attenuation_db=6.0)
        assert cable.gain == pytest.approx(0.501, abs=0.001)

    def test_thermal_noise_grows_with_temperature(self):
        cold = CryogenicCable(warm_temperature_k=50.0)
        warm = CryogenicCable(warm_temperature_k=300.0)
        assert warm.thermal_noise_mv_rms() > cold.thermal_noise_mv_rms()

    def test_noise_magnitude_sane(self):
        # 300 K, 50 ohm, 10 GHz: ~0.09 mV RMS.
        noise = CryogenicCable().thermal_noise_mv_rms()
        assert 0.01 < noise < 1.0

    def test_propagation(self):
        cable = CryogenicCable(attenuation_db=3.0)
        assert cable.propagate_level_mv(20.0) == pytest.approx(20.0 * cable.gain)

    def test_validation(self):
        with pytest.raises(ValueError):
            CryogenicCable(attenuation_db=-1.0)
        with pytest.raises(ValueError):
            CryogenicCable(warm_temperature_k=0.0)


class TestReceiver:
    def test_clean_eye_negligible_errors(self):
        receiver = CmosReceiver(input_noise_mv_rms=0.3)
        p01, p10 = receiver.flip_probabilities(0.3, 14.0)
        assert p01 < 1e-9 and p10 < 1e-9

    def test_collapsed_eye_is_coin_flip(self):
        receiver = CmosReceiver()
        assert receiver.flip_probabilities(5.0, 5.0) == (0.5, 0.5)

    def test_noise_raises_error_rate(self):
        receiver_quiet = CmosReceiver(input_noise_mv_rms=0.1)
        receiver_noisy = CmosReceiver(input_noise_mv_rms=3.0)
        q01, _ = receiver_quiet.flip_probabilities(0.0, 10.0)
        n01, _ = receiver_noisy.flip_probabilities(0.0, 10.0)
        assert n01 > q01

    def test_explicit_threshold(self):
        receiver = CmosReceiver(threshold_mv=2.0)
        assert receiver.decision_threshold(0.0, 10.0) == 2.0

    def test_midpoint_threshold(self):
        receiver = CmosReceiver()
        assert receiver.decision_threshold(0.0, 10.0) == 5.0

    def test_decide_soft_batch_hardens_to_decide_batch(self):
        receiver = CmosReceiver(input_noise_mv_rms=2.0)
        rng = np.random.default_rng(0)
        levels = np.where(rng.integers(0, 2, (50, 8)).astype(bool), 10.0, 0.0)
        hard = receiver.decide_batch(levels, 0.0, 10.0, random_state=3)
        soft = receiver.decide_soft_batch(levels, 0.0, 10.0, random_state=3)
        # Same seed, same draws: slicing the confidences at 0 must
        # reproduce the hard receiver bit for bit.
        assert np.array_equal((soft < 0).astype(np.uint8), hard)

    def test_decide_soft_batch_noiseless_saturates(self):
        receiver = CmosReceiver(input_noise_mv_rms=0.0)
        levels = np.array([[0.0, 10.0, 5.0]])
        soft = receiver.decide_soft_batch(levels, 0.0, 10.0)
        assert soft[0, 0] == pytest.approx(1.0)   # nominal low: confident 0
        assert soft[0, 1] == pytest.approx(-1.0)  # nominal high: confident 1
        assert soft[0, 2] == pytest.approx(0.0)   # on-threshold: no information

    def test_decide_soft_batch_collapsed_eye_is_signed_coin_flip(self):
        receiver = CmosReceiver()
        soft = receiver.decide_soft_batch(
            np.full((4, 64), 5.0), 5.0, 5.0, random_state=1
        )
        assert set(np.unique(soft)) == {-1.0, 1.0}


class TestAwgnFluxChannel:
    def test_noiseless_confidences_are_exact_bpsk(self):
        from repro.link import AwgnFluxChannel

        channel = AwgnFluxChannel(sigma=0.0)
        bits = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        confidences = channel.transmit_soft(bits)
        assert np.allclose(confidences, [[1.0, -1.0, 1.0, -1.0]])
        assert channel.flip_probability() == 0.0

    def test_matches_scalar_flux_reference(self):
        """transmit_soft is the batched soft_confidences_from_flux."""
        from repro.coding.decoders.soft import soft_confidences_from_flux
        from repro.link import AwgnFluxChannel
        from repro.sfq.waveform import PHI0_MV_PS

        channel = AwgnFluxChannel(sigma=0.3, amplitude_scale=0.8)
        bits = np.random.default_rng(2).integers(0, 2, (6, 8)).astype(np.uint8)
        confidences = channel.transmit_soft(bits, random_state=5)
        # Rebuild the same noisy flux integrals from the same seed and
        # push them through the scalar reference map.
        full = PHI0_MV_PS * 1000.0 * 0.8
        flux = bits.astype(float) * full + np.random.default_rng(5).normal(
            0.0, 0.3 * full, size=bits.shape
        )
        assert np.allclose(
            confidences, soft_confidences_from_flux(flux, amplitude_scale=0.8)
        )

    def test_harden_and_transmit_hard_agree(self):
        from repro.link import AwgnFluxChannel

        channel = AwgnFluxChannel(sigma=0.4)
        bits = np.random.default_rng(3).integers(0, 2, (20, 8)).astype(np.uint8)
        soft = channel.transmit_soft(bits, random_state=7)
        hard = channel.transmit_hard(bits, random_state=7)
        assert np.array_equal(channel.harden(soft), hard)

    def test_flip_probability_matches_monte_carlo(self):
        from repro.link import AwgnFluxChannel

        channel = AwgnFluxChannel(sigma=0.5)
        bits = np.zeros((2000, 8), dtype=np.uint8)
        flips = channel.transmit_hard(bits, random_state=11).mean()
        assert flips == pytest.approx(channel.flip_probability(), abs=0.02)

    def test_validation(self):
        from repro.link import AwgnFluxChannel

        with pytest.raises(ValueError):
            AwgnFluxChannel(sigma=-0.1)
        with pytest.raises(ValueError):
            AwgnFluxChannel(amplitude_scale=0.0)
        with pytest.raises(ValueError):
            AwgnFluxChannel().transmit_soft(np.zeros(8, dtype=np.uint8))


class TestBinaryChannel:
    def test_noiseless_passthrough(self):
        channel = BinaryChannel()
        bits = np.random.default_rng(0).integers(0, 2, (50, 8)).astype(np.uint8)
        assert (channel.transmit(bits, 1) == bits).all()
        assert channel.is_noiseless()

    def test_flip_statistics(self):
        channel = BinaryChannel(p01=0.1, p10=0.3)
        zeros = np.zeros((20_000, 4), dtype=np.uint8)
        ones = np.ones((20_000, 4), dtype=np.uint8)
        rate01 = channel.transmit(zeros, 2).mean()
        rate10 = 1.0 - channel.transmit(ones, 3).mean()
        assert rate01 == pytest.approx(0.1, abs=0.01)
        assert rate10 == pytest.approx(0.3, abs=0.01)

    def test_per_channel_probabilities(self):
        p01 = np.array([0.0, 0.5])
        channel = BinaryChannel(p01=p01, p10=0.0)
        zeros = np.zeros((10_000, 2), dtype=np.uint8)
        out = channel.transmit(zeros, 4)
        assert out[:, 0].sum() == 0
        assert out[:, 1].mean() == pytest.approx(0.5, abs=0.02)

    def test_crossover(self):
        assert BinaryChannel(p01=0.2, p10=0.4).crossover_probability() == pytest.approx(0.3)

    def test_noiseless_skips_rng_draws(self):
        # The zero-noise fast path must not consume from a shared
        # generator: draws after a noiseless transmit equal draws from a
        # fresh generator with the same seed.
        channel = BinaryChannel(p01=0.0, p10=0.0)
        bits = np.random.default_rng(1).integers(0, 2, (64, 8)).astype(np.uint8)
        rng = np.random.default_rng(42)
        out = channel.transmit(bits, random_state=rng)
        assert np.array_equal(out, bits)
        assert out is not bits  # still a private copy
        untouched = np.random.default_rng(42)
        assert np.array_equal(rng.random(16), untouched.random(16))

    def test_noiseless_per_channel_array_skips_rng(self):
        channel = BinaryChannel(p01=np.zeros(4), p10=np.zeros(4))
        rng = np.random.default_rng(5)
        channel.transmit(np.ones((10, 4), dtype=np.uint8), random_state=rng)
        assert np.array_equal(rng.random(4), np.random.default_rng(5).random(4))

    def test_noiseless_fast_path_still_validates_width(self):
        # A 4-channel probability vector applied to 8-wide words is a
        # misconfiguration and must raise even when noiseless.
        channel = BinaryChannel(p01=np.zeros(4), p10=np.zeros(4))
        with pytest.raises(ValueError):
            channel.transmit(np.ones((10, 8), dtype=np.uint8), random_state=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryChannel(p01=1.5)
        channel = BinaryChannel()
        with pytest.raises(ValueError):
            channel.transmit(np.zeros(8, dtype=np.uint8), 0)

    @pytest.mark.parametrize(
        "p01", [np.nan, np.inf, -np.inf, np.array([0.1, np.nan])]
    )
    def test_rejects_non_finite_probabilities(self, p01):
        """Regression: NaN passed the range test, which NaN compares false to."""
        with pytest.raises(ValueError, match="p01 must lie in"):
            BinaryChannel(p01=p01)
        with pytest.raises(ValueError, match="p10 must lie in"):
            BinaryChannel(p10=p01)


class TestLinkBudget:
    def test_healthy_link_is_nearly_noiseless(self):
        channel = link_budget_channel()
        assert channel.crossover_probability() < 1e-6

    def test_degraded_driver_worsens_channel(self):
        healthy = link_budget_channel()
        degraded = link_budget_channel(driver_deviation=0.45)
        assert degraded.crossover_probability() > healthy.crossover_probability()

    def test_lossy_cable_worsens_channel(self):
        lossy = link_budget_channel(cable=CryogenicCable(attenuation_db=26.0))
        healthy = link_budget_channel()
        assert lossy.crossover_probability() >= healthy.crossover_probability()

    def test_dead_driver_is_coin_flip(self):
        channel = link_budget_channel(driver_deviation=1.0)
        assert channel.crossover_probability() == pytest.approx(0.5)
