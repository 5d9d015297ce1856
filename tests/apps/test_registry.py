"""Unit tests for the application registry and loss scaling."""

import pytest

import repro
import repro.apps
from repro.apps import registry
from repro.apps.registry import (
    APP_NAMES,
    DEFAULT_CONFIGS,
    PAPER_CONFIGS,
    PAPER_TASK_COUNTS,
    TINY_CONFIGS,
    _task_count,
    make_app,
    scaled_loss,
)
from repro.graph.analysis import collect_tasks


class TestMakeApp:
    @pytest.mark.parametrize("name", APP_NAMES)
    @pytest.mark.parametrize("scale", ["tiny", "default"])
    def test_scales(self, name, scale):
        app = make_app(name, scale=scale)
        assert app.name == name
        assert not app.light

    def test_light_flag(self):
        assert make_app("lcs", scale="tiny", light=True).light

    def test_unknown_app(self):
        with pytest.raises(ValueError, match="unknown app"):
            make_app("quantum")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            make_app("lcs", scale="galactic")

    def test_explicit_config_wins(self):
        from repro.apps import AppConfig

        app = make_app("lcs", AppConfig(n=64, block=32))
        assert app.config.blocks == 2


class TestLazyNames:
    @pytest.mark.parametrize("name", repro.apps.__all__)
    def test_every_exported_name_resolves(self, name):
        assert getattr(repro.apps, name) is not None

    @pytest.mark.parametrize("module", [repro.apps, registry])
    def test_unknown_attribute_raises(self, module):
        with pytest.raises(AttributeError, match="no attribute 'quantum'"):
            module.quantum

    def test_app_classes_maps_every_app(self):
        classes = repro.apps.APP_CLASSES
        assert tuple(classes) == APP_NAMES
        for name, cls in classes.items():
            assert isinstance(make_app(name, scale="tiny"), cls)

    def test_make_app_imports_only_its_own_module(self, fresh_python):
        loaded = fresh_python(
            "import sys\n"
            "from repro.apps import make_app\n"
            "make_app('lcs')\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.apps.')))\n"
        ).splitlines()[-1]
        assert "'repro.apps.lcs'" in loaded
        for other in ("lu", "cholesky", "trsm", "smith_waterman", "floyd_warshall"):
            assert f"'repro.apps.{other}'" not in loaded


class TestTaskCountFormulas:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_closed_form_matches_materialized_graph(self, name):
        cfg = TINY_CONFIGS[name]
        app = make_app(name, cfg, light=True)
        assert _task_count(name, cfg) == len(collect_tasks(app))

    def test_paper_counts_match_formulas_where_reconstructible(self):
        # LCS / LU / Cholesky formulas reproduce Table I exactly; FW is
        # off by our one collection sink; SW is a documented substitution.
        assert _task_count("lcs", PAPER_CONFIGS["lcs"]) == PAPER_TASK_COUNTS["lcs"]
        assert _task_count("lu", PAPER_CONFIGS["lu"]) == PAPER_TASK_COUNTS["lu"]
        assert _task_count("cholesky", PAPER_CONFIGS["cholesky"]) == PAPER_TASK_COUNTS["cholesky"]
        assert _task_count("fw", PAPER_CONFIGS["fw"]) == PAPER_TASK_COUNTS["fw"] + 1


class TestScaledLoss:
    def test_proportionality(self):
        # LCS default: 2304 of 65536 tasks -> 512 scales to 18.
        assert scaled_loss("lcs", 512) == 18

    def test_minimum_one(self):
        assert scaled_loss("lu", 1) == 1

    def test_uses_paper_reported_counts_for_sw(self):
        # SW must scale against the paper's 132650, not our 2304.
        assert scaled_loss("sw", 512) == round(512 * 2304 / 132650)


class TestLargeConfigs:
    def test_large_scale_instantiates(self):
        from repro.apps.registry import LARGE_CONFIGS

        for name in APP_NAMES:
            app = make_app(name, scale="large", light=True)
            assert app.config == LARGE_CONFIGS[name]

    def test_large_has_more_parallelism_than_default(self):
        # The point of the large configs: structural parallelism that
        # does not saturate at 44 workers.
        from repro.graph.analysis import graph_stats

        for name in ("lcs", "sw"):
            large = graph_stats(make_app(name, scale="large", light=True))
            default = graph_stats(make_app(name, scale="default", light=True))
            assert large.average_parallelism > 1.9 * default.average_parallelism
        # LCS at B=96 clears the 44-worker mark; SW's anti-dependence
        # edges cap it near B/3 (the reason its Figure 4 curve tops out
        # around 30x -- see EXPERIMENTS.md).
        lcs = graph_stats(make_app("lcs", scale="large", light=True))
        assert lcs.average_parallelism > 44
