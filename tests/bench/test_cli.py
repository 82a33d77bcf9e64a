"""Tests for the benchmark command-line interface."""

import pytest

from repro.bench.cli import EXPERIMENTS, SCALES, main, run_experiment


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "small", "paper"}

    def test_paper_scale_matches_protocol(self):
        paper = SCALES["paper"]
        assert paper["repetitions"] == 25
        assert paper["test_queries"] == 300
        assert paper["train_queries"] == 100
        assert paper["rows"] is None  # full dataset cardinalities
        assert len(paper["datasets"]) == 5
        assert len(paper["workloads"]) == 4

    def test_fig7_scales(self):
        """Only the paper scale runs the figure's full 100-query,
        1K-128K sweep; smoke stays small enough for tier-1."""
        from repro.bench.cli import FIG7_SCALE
        from repro.bench.experiments import PAPER_MODEL_SIZES

        assert set(FIG7_SCALE) == set(SCALES)
        assert FIG7_SCALE["paper"]["sizes"] == PAPER_MODEL_SIZES
        assert FIG7_SCALE["paper"]["queries"] == 100
        assert max(FIG7_SCALE["smoke"]["sizes"]) <= 16384

    def test_scales_ordered_by_fidelity(self):
        assert (
            SCALES["smoke"]["repetitions"]
            <= SCALES["small"]["repetitions"]
            <= SCALES["paper"]["repetitions"]
        )


class TestCLI:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig4", "--scale", "galactic"])

    def test_run_experiment_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("fig99", "smoke")

    def test_experiment_list(self):
        assert "fig4" in EXPERIMENTS
        assert "all" in EXPERIMENTS

    def test_fig7_smoke_end_to_end(self):
        """fig7 runs the generated device kernels on each model size to
        read the modelled clock; the smoke scale keeps the sizes small
        enough for a unit test.  It exercises the whole run_experiment
        plumbing."""
        report = run_experiment("fig7", "smoke", progress=False)
        assert "Figure 7" in report
        assert "STHoles" in report
        assert "scale=smoke" in report


class TestServingExperiment:
    def test_listed(self):
        assert "serving" in EXPERIMENTS
        from repro.bench.cli import SERVING_SCALE

        assert set(SERVING_SCALE) == set(SCALES)

    def test_smoke_end_to_end(self):
        report = run_experiment("serving", "smoke", progress=False)
        assert "Serving" in report
        assert "reads/s" in report
        assert "staleness" in report
        assert "publications" in report

    def test_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "serving.ckpt")
        cold = run_experiment(
            "serving", "smoke", progress=False, checkpoint=path
        )
        assert "cold start" in cold
        warm = run_experiment(
            "serving", "smoke", progress=False, checkpoint=path
        )
        assert "warm-started from" in warm
