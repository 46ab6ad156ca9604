"""Integration tests: each experiment harness runs end-to-end at tiny
scale and produces structurally correct, sane output. (Shape assertions
on the paper's orderings live in benchmarks/, where the scale is large
enough for them to be stable.)"""
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.common import ExpConfig, fmt_table, tasks_for
from repro.synth_data import ADS_MEASURES
from tests.conftest import DAYS


@pytest.fixture(scope="module")
def tiny_cfg():
    # Reuse the session dataset: 30 days, train on 22, forecast 7.
    return ExpConfig(
        sf=0.01, days=DAYS, train_days=DAYS - 8, horizon=7, n_tasks=1,
        rates=(0.05, 0.2), selectivities=(0.05,),
        arima_kwargs={"max_p": 1, "max_q": 1, "max_d": 1},
    )


class TestTable1Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.table1 import run_table1

        t = run_table1(ads_df, tiny_cfg, rate=0.1)
        assert list(t["measure"]) == list(ADS_MEASURES)
        for col in ("Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"):
            assert (t[col] >= 0).all() and np.isfinite(t[col]).all()

    def test_paper_reference_shape(self):
        from repro.experiments.table1 import PAPER_TABLE1

        # The recorded paper numbers themselves satisfy the claimed order.
        means = PAPER_TABLE1[["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"]].mean()
        assert means["Full"] <= means["Opt-GSW"] <= means["C-GSW"]
        assert means["C-GSW"] <= means["Uniform"] <= means["PIM"]


class TestExp2Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.exp2_response import run_exp2

        t = run_exp2(ads_df, tiny_cfg, repeats=1)
        assert set(t["source"]) == {"full", "opt@0.05", "opt@0.2"}
        assert (t["agg_ms"] > 0).all() and (t["arima_ms"] > 0).all()


class TestExp3Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.exp3_train_days import run_exp3

        t = run_exp3(ads_df, tiny_cfg, train_days_sweep=(10, 20), models=("arima",))
        assert len(t) == len(tiny_cfg.rates) * 2
        assert (t["fc_err"] >= 0).all()


class TestExp4Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.exp4_sweep import SAMPLERS, run_exp4

        t = run_exp4(ads_df, tiny_cfg, measure="favorite", model="arima")
        assert set(t["sampler"]) == set(SAMPLERS)
        assert len(t) == len(SAMPLERS) * len(tiny_cfg.rates) * len(tiny_cfg.selectivities)
        for col in ("agg_err", "fc_err", "interval_width"):
            assert np.isfinite(t[col]).all()


class TestExp5Harness:
    def test_structure_and_bounds(self, ads_df, tiny_cfg):
        from repro.experiments.exp5_space import run_exp5

        t = run_exp5(ads_df, tiny_cfg, verify_rate=None)
        assert (t["size_ratio"] > 1.0).all()
        assert (t["size_ratio"] < len(ADS_MEASURES) + 1e-9).all()
        # per-measure optimal sizes sum to the reported total
        per = t[[f"opt_size_{m}" for m in ADS_MEASURES]].sum(axis=1)
        assert np.allclose(per, t["total_opt_size"])


class TestFig6Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.fig6_grouping import run_fig6, two_groupings

        assert len(two_groupings()) == 3
        t = run_fig6(ads_df, tiny_cfg, rate=0.1)
        assert len(t) == 12  # 3 groupings × 4 measures
        assert (t["l1_distance"] >= 0).all() and (t["agg_err"] >= 0).all()


class TestCommonHelpers:
    def test_tasks_for_shapes(self, tiny_cfg):
        tasks = tasks_for(tiny_cfg, selectivity=0.05, measure="click", base_seed=1)
        assert len(tasks) == tiny_cfg.n_tasks
        where, sql = tasks[0]
        assert "FORECAST SUM(click)" in sql and where in sql

    def test_fmt_table_roundtrip(self):
        import pandas as pd

        t = pd.DataFrame({"a": [1.23456, 2.0], "b": ["x", "y"]})
        s = fmt_table(t)
        assert "1.235" in s and "x" in s


class TestEntrypoint:
    def test_registry_run_and_save(self, ads_df, tiny_cfg, tmp_path):
        from repro.experiments.registry import EXPERIMENTS

        exp = EXPERIMENTS["fig6_grouping"]
        result = exp.run(ads_df, exp.config(tiny_cfg))
        exp.save(result, str(tmp_path))
        declared = [f"{name}.txt" for name in exp.tables(result)]
        assert declared == ["fig6_grouping.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == declared
        assert (tmp_path / "fig6_grouping.txt").read_text() == fmt_table(result) + "\n"

    def test_cli_help_lists_every_experiment(self):
        import repro
        from repro.experiments.registry import EXPERIMENTS

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--help"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0, out.stderr
        for name in EXPERIMENTS:
            assert name in out.stdout
