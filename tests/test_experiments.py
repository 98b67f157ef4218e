"""Integration tests: the experiment drivers reproduce the paper's shape.

These use reduced interaction counts to stay fast; EXPERIMENTS.md records
full-length runs.  The assertions check *bands and orderings* — who
wins, in what direction — not exact values.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentSettings,
    run_fig1a,
    run_fig6,
    run_fig7,
    run_interactivity_table,
)
from repro.experiments.ablations import (
    ablate_binding,
    ablate_homing,
    ablate_purge_anatomy,
    ablate_replication,
    ablate_routing,
)
from repro.experiments.fig8 import run_fig8


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(n_user=8, n_os=48)


@pytest.fixture(scope="module")
def fig1(settings):
    return run_fig1a(settings, verbose=False)


@pytest.fixture(scope="module")
def fig6(settings):
    return run_fig6(settings, verbose=False)


@pytest.fixture(scope="module")
def fig7(settings):
    return run_fig7(settings, verbose=False)


class TestFig1a:
    def test_normalization_base(self, fig1):
        assert fig1["insecure"] == pytest.approx(1.0)

    def test_sgx_band(self, fig1):
        """Paper: ~1.33x.  Accept the surrounding band."""
        assert 1.1 < fig1["sgx"] < 1.6

    def test_mi6_band(self, fig1):
        """Paper: ~2.25x."""
        assert 1.6 < fig1["mi6"] < 2.8

    def test_ironhide_band(self, fig1):
        """Paper: ~1.11x."""
        assert 0.9 < fig1["ironhide"] < 1.3

    def test_ordering(self, fig1):
        assert fig1["insecure"] < fig1["sgx"] < fig1["mi6"]
        assert fig1["ironhide"] < fig1["sgx"]


class TestFig6:
    def test_headline_mi6_over_ironhide(self, fig6):
        """Paper: ~2.1x."""
        assert 1.6 < fig6.mi6_over_ironhide < 2.7

    def test_ironhide_gain_over_sgx(self, fig6):
        """Paper: ~20% better."""
        assert fig6.ironhide_gain_over_sgx > 1.05

    def test_os_gains_dwarf_user_gains(self, fig6):
        user = fig6.geomeans["user"]["mi6"] / fig6.geomeans["user"]["ironhide"]
        os_ = fig6.geomeans["os"]["mi6"] / fig6.geomeans["os"]["ironhide"]
        assert os_ > 2 * user

    def test_user_level_sgx_overhead_negligible(self, fig6):
        assert fig6.geomeans["user"]["sgx"] < 1.05

    def test_tc_marker_is_tiny(self, fig6):
        row = next(r for r in fig6.rows if r.app == "<TC, GRAPH>")
        assert row.secure_cores <= 8

    def test_lighttpd_marker_is_one_or_two(self, fig6):
        row = next(r for r in fig6.rows if r.app == "<LIGHTTPD, OS>")
        assert row.secure_cores <= 2

    def test_mi6_overheads_visible_in_breakdown(self, fig6):
        for row in fig6.rows:
            assert row.overhead_ms["mi6"] > row.overhead_ms["sgx"] * 0.9


class TestFig7:
    def test_l1_improves_for_most_apps(self, fig7):
        improving = [r for r in fig7.rows if r.l1_improvement > 1.0]
        assert len(improving) >= 6

    def test_l1_best_case_band(self, fig7):
        """Paper: up to ~5.9x; this scaled sim reaches >1.5x."""
        assert fig7.max_l1_improvement > 1.5

    def test_l2_improves_for_capacity_hungry_apps(self, fig7):
        assert fig7.row("<SQZ-NET, VISION>").l2_improvement > 1.1
        assert fig7.row("<ABC, VISION>").l2_improvement > 1.1

    def test_tc_l2_exception(self, fig7):
        """<TC, GRAPH> slightly worse under IRONHIDE (2 slices)."""
        assert fig7.row("<TC, GRAPH>").l2_improvement < 1.05

    def test_lighttpd_l2_exception(self, fig7):
        """<LIGHTTPD, OS> worse under IRONHIDE (1 slice)."""
        assert fig7.row("<LIGHTTPD, OS>").l2_improvement < 1.0


class TestFig8:
    @pytest.fixture(scope="class")
    def fig8(self, settings):
        return run_fig8(settings, verbose=False, percents=(25,))

    def test_heuristic_beats_mi6(self, fig8):
        """Paper: ~2.1x."""
        assert fig8.heuristic_gain > 1.5

    def test_optimal_at_least_matches_heuristic(self, fig8):
        assert fig8.series["optimal"] <= fig8.series["heuristic"] * 1.05

    def test_variations_do_not_beat_optimal(self, fig8):
        assert fig8.series["+25%"] >= fig8.series["optimal"] * 0.98
        assert fig8.series["-25%"] >= fig8.series["optimal"] * 0.98


class TestInteractivityTable:
    @pytest.fixture(scope="class")
    def table(self, settings):
        return run_interactivity_table(settings, verbose=False)

    def test_user_rate_band(self, table):
        """Paper: ~400 entry/exit events per second."""
        assert 150 < table.user_rate < 1000

    def test_os_rate_band(self, table):
        """Paper: ~220K per second."""
        assert 60_000 < table.os_rate < 500_000

    def test_user_purge_near_paper_constant(self, table):
        """Paper: ~0.19 ms per interaction event."""
        user = [r for r in table.rows if r.level == "user"]
        mean = sum(r.purge_per_interaction_ms for r in user) / len(user)
        assert 0.08 < mean < 0.8

    def test_os_purges_are_much_cheaper(self, table):
        user = [r.purge_per_interaction_ms for r in table.rows if r.level == "user"]
        os_ = [r.purge_per_interaction_ms for r in table.rows if r.level == "os"]
        assert max(os_) < min(user)

    def test_fullscale_purge_improvement_large(self, table):
        """Paper: ~706x; order hundreds+ here."""
        assert table.geomean_purge_improvement > 100


class TestAblations:
    def test_local_homing_beats_hash_on_latency(self):
        out = ablate_homing(verbose=False)
        assert out["local-cluster"] < out["hash-global"]

    def test_bidirectional_routing_contains_everything(self):
        out = ablate_routing(rows=4, cols=4, verbose=False)
        assert out["xy_only_escapes"] > 0
        assert out["bidirectional_escapes"] == 0

    def test_dynamic_binding_beats_static(self, settings):
        out = ablate_binding(settings, verbose=False)
        assert out["heuristic"] <= 1.02
        assert out["optimal"] <= 1.02
        assert out["optimal"] <= out["heuristic"] * 1.05

    def test_purge_anatomy_dynamic_component(self, settings):
        out = ablate_purge_anatomy(settings, verbose=False)
        user = out["<PR, GRAPH>"]
        os_ = out["<MEMCACHED, OS>"]
        assert user["mc_drain"] > os_["mc_drain"]
        assert user["total"] > os_["total"]
        assert user["dummy_read"] == os_["dummy_read"]  # fixed component

    def test_replication_helps_baseline(self, settings):
        out = ablate_replication(settings, verbose=False)
        assert out["replication-on"] < out["replication-off"]


class TestFigScale:
    """The trace-length overhead sweep (figscale driver)."""

    @pytest.fixture(scope="class")
    def figscale(self):
        from repro.experiments.figscale import run_figscale

        settings = ExperimentSettings(n_user=16, n_os=32)  # driver divides by 8
        return run_figscale(settings, scales=(1.0, 4.0), verbose=False)

    def test_shape(self, figscale):
        assert figscale.scales == (1.0, 4.0)
        for level in ("user", "os", "all"):
            for machine in ("sgx", "mi6", "ironhide"):
                assert len(figscale.normalized[level][machine]) == 2

    def test_driver_divides_interaction_counts(self, figscale):
        assert figscale.n_user == 4  # floor of 16 // 8
        assert figscale.n_os == 8  # floor applied

    def test_mi6_overhead_amortizes_with_trace_length(self, figscale):
        """Per-crossing purges are ~fixed per interaction, so longer
        traces dilute them: MI6's normalized overhead must fall."""
        series = figscale.normalized["all"]["mi6"]
        assert series[-1] < series[0]
        assert figscale.mi6_amortization > 1.0

    def test_ironhide_overhead_stays_flat(self, figscale):
        """No per-crossing term to amortize: IRONHIDE's normalized
        completion moves far less than MI6's."""
        ih = figscale.normalized["all"]["ironhide"]
        mi6 = figscale.normalized["all"]["mi6"]
        ih_drift = abs(ih[-1] / ih[0] - 1.0)
        mi6_drift = abs(mi6[-1] / mi6[0] - 1.0)
        assert ih_drift < mi6_drift

    def test_payload_round_trips_json(self, figscale):
        import json

        payload = figscale.as_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["scales"] == [1.0, 4.0]


class TestPlotting:
    """The shared SVG helpers render well-formed, labeled charts."""

    @staticmethod
    def _parse(path):
        import xml.etree.ElementTree as ET

        return ET.parse(path).getroot()

    def test_render_lines_svg(self, tmp_path):
        from repro.experiments.plotting import render_lines

        out = tmp_path / "lines.svg"
        render_lines(
            out, "t", "unit", ["1x", "2x", "4x"],
            {"mi6": [2.0, 1.8, 1.6], "ironhide": [1.0, 1.0, None]},
        )
        root = self._parse(out)
        text = out.read_text()
        assert "mi6" in text and "ironhide" in text  # legend + end labels
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}polyline")) == 2
        # A None value is a hole, not a zero: 5 markers, not 6.
        markers = [c for c in root.iter(f"{ns}circle") if c.get("stroke")]
        assert len(markers) == 5

    def test_render_grouped_bars_svg(self, tmp_path):
        from repro.experiments.plotting import render_grouped_bars

        out = tmp_path / "bars.svg"
        render_grouped_bars(
            out, "t", "unit", ["a", "b"],
            {"mi6": [2.0, 1.5], "ironhide": [1.0, 0.9]},
            baseline=1.0, baseline_label="base",
        )
        root = self._parse(out)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}path")) == 4  # 2 groups x 2 series
        assert "base" in out.read_text()

    def test_machine_colors_are_fixed(self):
        """Color follows the entity: filtering series never repaints."""
        from repro.experiments.plotting import MACHINE_COLORS, series_colors

        full = series_colors(["sgx", "mi6", "ironhide"])
        filtered = series_colors(["mi6", "ironhide"])
        assert full["mi6"] == filtered["mi6"] == MACHINE_COLORS["mi6"]

    def test_figure_plotters_write_svg(self, tmp_path, settings):
        from repro.experiments import run_fig6
        from repro.experiments.fig6 import plot_fig6
        from repro.experiments.figscale import plot_figscale, run_figscale

        fig6 = run_fig6(settings, verbose=False)
        plot_fig6(fig6, tmp_path / "fig6.svg")
        self._parse(tmp_path / "fig6.svg")

        scale_settings = ExperimentSettings(n_user=16, n_os=32)
        data = run_figscale(scale_settings, scales=(1.0, 2.0), verbose=False)
        plot_figscale(data, tmp_path / "figscale.svg")
        self._parse(tmp_path / "figscale.svg")
