"""Tests for the MatchaAccelerator facade and its functional execution path."""

import pytest

from repro.core.accelerator import MatchaAccelerator, MatchaConfig
from repro.core.integer_fft import ApproximateNegacyclicTransform
from repro.tfhe.gates import PLAINTEXT_GATES, TFHEGateEvaluator, decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_cloud_key, generate_secret_key
from repro.tfhe.params import TEST_SMALL


class TestConfig:
    def test_defaults_follow_paper(self):
        config = MatchaConfig()
        assert config.twiddle_bits == 64
        assert config.unroll_factor == 3
        assert config.pipeline_count == 8
        assert config.clock_hz == pytest.approx(2.0e9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"twiddle_bits": 0},
            {"unroll_factor": 0},
            {"pipeline_count": 0},
            {"clock_hz": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MatchaConfig(**kwargs)


class TestFunctionalExecution:
    @pytest.fixture(scope="class")
    def accelerator_setup(self):
        config = MatchaConfig(twiddle_bits=64, unroll_factor=2)
        accelerator = MatchaAccelerator(params=TEST_SMALL, config=config)
        secret = generate_secret_key(TEST_SMALL, rng=7)
        cloud = generate_cloud_key(
            secret, transform=accelerator.transform, unroll_factor=config.unroll_factor, rng=8
        )
        return accelerator, secret, cloud

    def test_transform_is_approximate_integer_fft(self, accelerator_setup):
        accelerator, _, _ = accelerator_setup
        assert isinstance(accelerator.transform, ApproximateNegacyclicTransform)
        assert accelerator.transform.twiddle_bits == 64

    def test_gates_decrypt_correctly(self, accelerator_setup):
        """Section 4.1: approximate FFTs cause no decryption errors."""
        accelerator, secret, cloud = accelerator_setup
        evaluator = TFHEGateEvaluator(cloud)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            ca = encrypt_bit(secret, a, rng=10 + a)
            cb = encrypt_bit(secret, b, rng=20 + b)
            got = decrypt_bit(secret, evaluator.nand(ca, cb))
            assert got == PLAINTEXT_GATES["nand"](a, b)

    def test_cloud_key_uses_configured_unrolling(self, accelerator_setup):
        _, _, cloud = accelerator_setup
        assert cloud.unroll_factor == 2

    def test_mismatched_parameters_rejected(self):
        from repro.tfhe.params import TEST_TINY

        accelerator = MatchaAccelerator(params=TEST_SMALL)
        wrong_secret = generate_secret_key(TEST_TINY, rng=9)
        with pytest.raises(ValueError):
            generate_cloud_key(wrong_secret, transform=accelerator.transform)


class TestModelingBridges:
    def test_performance_report(self):
        accelerator = MatchaAccelerator()
        report = accelerator.performance()
        assert report.platform == "MATCHA"
        assert report.unroll_factor == 3
        assert report.gate_latency_ms < 1.0
        assert report.throughput_gates_per_s > 1000

    @pytest.mark.parametrize("unroll_factor", [1, 2, 3, 4])
    def test_config_reaches_the_cycle_model(self, unroll_factor):
        """Unroll factor, clock and pipeline count each reach the report."""
        def report(**kwargs):
            config = MatchaConfig(unroll_factor=unroll_factor, **kwargs)
            return MatchaAccelerator(config=config).performance()

        base = report()
        assert base.unroll_factor == unroll_factor and base.supported
        assert report(clock_hz=4.0e9).gate_latency_ms < base.gate_latency_ms
        half = report(pipeline_count=4)
        assert half.gate_latency_ms == pytest.approx(base.gate_latency_ms)
        assert base.throughput_gates_per_s / 2 <= half.throughput_gates_per_s
        assert half.throughput_gates_per_s < base.throughput_gates_per_s

    def test_area_power_bridge(self):
        """The performance report carries the Table 2 power envelope."""
        assert MatchaAccelerator().performance().power_w == pytest.approx(39.98, abs=0.02)
