"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/ -q -p no:cacheprovider

The smoke tests run each workload at a tiny scale factor in a subprocess,
as the benchmark is run, and take a few minutes.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from oracle import Oracle, series_matches  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from repro.synth_data import ads_pandas  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--sf", "0.005", "--seconds", "1"]
# Counts that must repeat exactly on two runs with the same seed.
REPEATING = (
    ("arima.candidate", "calls"),
    ("arima.candidate", "css"),
    ("estimators.series", "spark_jobs"),
    ("estimators.series", "spark_tasks"),
)


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *TINY]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class TestOracle:
    @pytest.fixture(scope="class")
    def oracle(self):
        pdf = ads_pandas(sf=0.001, days=12, seed=7)
        o = Oracle(pdf, days=12)
        sample = pdf.iloc[::3].copy()
        sample["click_est"] = sample["click"] * 3.0
        o.add_source("layer", sample)
        yield o, pdf, sample
        o.close()

    def test_full_series_matches_pandas(self, oracle):
        o, pdf, _ = oracle
        sel = pdf[pdf["gender"].isin([1]) & pdf["device"].isin([0, 2])]
        want = sel.groupby("t")["impression"].sum().reindex(range(12), fill_value=0)
        got = o.series("full", "gender IN (1) AND device IN (0, 2)", "impression")
        assert series_matches(want.to_numpy(dtype=float), got)

    def test_sample_series_reads_calibrated_column(self, oracle):
        o, _, sample = oracle
        want = sample.groupby("t")["click_est"].sum().reindex(range(12), fill_value=0)
        assert series_matches(want.to_numpy(), o.series("layer", None, "click"))
        assert o.rows["layer"] == len(sample)

    def test_flags_perturbed_series(self, oracle):
        o, _, _ = oracle
        want = o.series("full", "os IN (1, 2)", "cart")
        assert series_matches(want.copy(), want)
        bad = want.copy()
        bad[5] *= 1.001
        assert not series_matches(bad, want)
        assert not series_matches(want[:-1], want)
        assert not series_matches(np.roll(want, 1), want)


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced same-seed runs of the sampled path, kept side by side."""
    spans = []
    for _ in range(2):
        result = bench("sampled-arima", 1)
        path = HERE / "out" / "trace-sampled-arima-s3-t1.json"
        spans.append((result, json.loads(path.read_text())))
    return spans


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    r = bench(workload, 0)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_smoke_full_lstm_traced():
    r = bench("full-lstm", 1)
    assert r["correct"]
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("per_layer")
    m = {k: v["value"] for k, v in r["metrics"].items()}
    # The full-scan path touches neither samples nor ARIMA nor GSW builds.
    assert m["lstm.fit_ms"] > 0 and m["estimators.spark_jobs"] > 0
    assert m["arima.fit_ms"] == m["gsw.solve_delta_ms"] == m["gsw.sample_rows"] == 0


def per_op_counts(spans: list[dict]) -> list[dict]:
    """``layer_totals`` of every ``op`` span in a written trace."""
    tracer = Tracer(None)
    tracer.spans = spans
    return [layer_totals(tracer, s["id"]) for s in spans if s["name"] == "op"]


def test_smoke_sampled_traced(traced_runs):
    (r, _), _ = traced_runs
    assert r["correct"]
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("per_layer")
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["arima.candidates"] > 0 and m["arma.css_evals"] > 0 and m["gsw.sample_rows"] > 0
    assert m["lstm.fit_ms"] == 0


def test_counts_repeat_across_same_seed_runs(traced_runs):
    (r1, s1), (r2, s2) = traced_runs
    assert r1["metrics"]["gsw.sample_rows"] == r2["metrics"]["gsw.sample_rows"]
    a, b = per_op_counts(s1), per_op_counts(s2)
    n = min(len(a), len(b))
    assert n >= 1
    for name, key in REPEATING:
        assert [c[name][key] for c in a[:n]] == [c[name][key] for c in b[:n]], (name, key)
