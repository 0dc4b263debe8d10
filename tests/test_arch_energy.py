"""Tests for the power/area models (Table 2)."""

import pytest

from repro.arch.energy import EP_CORE, TGSW_CLUSTER, matcha_area_power_table


class TestTable2:
    def test_total_power_matches_paper(self):
        envelope = matcha_area_power_table()
        assert envelope.total_power_w == pytest.approx(39.98, abs=0.02)

    def test_total_area_matches_paper(self):
        envelope = matcha_area_power_table()
        assert envelope.total_area_mm2 == pytest.approx(36.96, abs=0.05)

    def test_subtotal_of_pipelines_matches_paper(self):
        per_pipeline = TGSW_CLUSTER.power_w + EP_CORE.power_w
        assert 8 * per_pipeline == pytest.approx(30.8, abs=0.01)
        per_pipeline_area = TGSW_CLUSTER.area_mm2 + EP_CORE.area_mm2
        assert 8 * per_pipeline_area == pytest.approx(18.06, abs=0.01)

    def test_component_rows_include_total(self):
        rows = matcha_area_power_table().as_rows()
        assert rows[-1][0] == "Total"
        assert len(rows) == 7

    def test_scaling_ep_cores_scales_power(self):
        full = matcha_area_power_table(ep_cores=8, tgsw_clusters=8)
        half = matcha_area_power_table(ep_cores=4, tgsw_clusters=4)
        assert half.total_power_w < full.total_power_w
        # Shared components do not scale away entirely.
        assert half.total_power_w > 0.4 * full.total_power_w
