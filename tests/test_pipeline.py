"""Tests for the TGSW-cluster / EP-core pipeline model (Figure 6)."""

import pytest

from repro.core.pipeline import PipelineStageTimes, schedule_bootstrapping


class TestStageTimes:
    def test_bottleneck_and_imbalance(self):
        times = PipelineStageTimes(tgsw_cluster_cycles=100, ep_core_cycles=50)
        assert times.bottleneck_cycles == 100
        assert times.imbalance == 2.0

    def test_balanced_stages(self):
        times = PipelineStageTimes(tgsw_cluster_cycles=80, ep_core_cycles=80)
        assert times.imbalance == 1.0


class TestSchedule:
    def test_pipelined_latency_is_fill_plus_bottleneck(self):
        times = PipelineStageTimes(100, 60)
        schedule = schedule_bootstrapping(10, times, pipelined=True)
        assert schedule.total_cycles == 100 + 10 * 100

    def test_sequential_latency_adds_stages(self):
        times = PipelineStageTimes(100, 60)
        schedule = schedule_bootstrapping(10, times, pipelined=False)
        assert schedule.total_cycles == 10 * 160

    def test_pipelining_always_helps_or_ties(self):
        for tgsw, ep in ((10, 200), (200, 10), (100, 100)):
            times = PipelineStageTimes(tgsw, ep)
            pipelined = schedule_bootstrapping(50, times, pipelined=True).total_cycles
            sequential = schedule_bootstrapping(50, times, pipelined=False).total_cycles
            assert pipelined <= sequential

    def test_speedup_approaches_two_when_balanced(self):
        times = PipelineStageTimes(100, 100)
        schedule = schedule_bootstrapping(1000, times, pipelined=True)
        assert schedule.speedup_over_sequential == pytest.approx(2.0, rel=0.01)

    def test_zero_iterations(self):
        schedule = schedule_bootstrapping(0, PipelineStageTimes(10, 10))
        assert schedule.total_cycles == 0.0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            schedule_bootstrapping(-1, PipelineStageTimes(10, 10))
