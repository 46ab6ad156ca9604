"""Synthetic ads relation at a configurable scale factor.

Tests use SF<=0.01; benchmarks use SF~=0.1. Generators are deterministic
in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# FlashP ads dataset (substitute for Alibaba UserProfile ⋈ AdTraffic).
#
# 11 categorical dimensions (integer-coded), 4 positive integer measures
# (favorite, impression, click, cart) and an integer day column ``t``.
# ``_N_ADS_PER_DAY_PER_SF`` rows per day per unit scale factor: the paper's
# production table has ~15M rows/day (SF≈100 here); tests use SF=0.01
# (1.5k rows/day) and benchmarks SF=0.1 (15k rows/day).
#
# Design goals mirrored from the paper's data:
#   * impression is heavy-tailed (lognormal) — weighted sampling must beat
#     uniform sampling;
#   * click/cart are derived from impression (similar trends, small ρ);
#     favorite is only weakly tied to impression (larger ρ) — compressed
#     GSW grouping has something to decide;
#   * the measure scale depends on *interactions* of dimension values, so
#     the Partwise Independence Model (PIM) baseline is biased;
#   * a per-day factor with trend + weekly seasonality + AR(1) noise gives
#     the aggregate series ARIMA-like dynamics;
#   * dimensions are mutually independent with fixed known marginals, so
#     constraint selectivity is predictable as a product of value masses.
# ---------------------------------------------------------------------------

ADS_DIMS = {
    "age_group": 7,
    "gender": 2,
    "occupation": 10,
    "city_tier": 5,
    "region": 6,
    "device": 3,
    "os": 4,
    "interest": 12,
    "membership": 4,
    "marital": 3,
    "edu": 5,
}
ADS_MEASURES = ("favorite", "impression", "click", "cart")

_N_ADS_PER_DAY_PER_SF = 150_000

# Latent user segments: every dimension loads on a shared segment
# variable with probability _SEG_MIX (else an independent draw), and the
# measures carry a per-segment activity multiplier. This is the
# generative story behind real ads data — users cluster into behavioral
# segments — and it is exactly what breaks the PIM baseline's
# independence assumption for every multi-dimension constraint.
_N_SEGMENTS = 8
_SEG_MIX = 0.5


def segment_probs() -> np.ndarray:
    """Marginal distribution of the latent segment (mildly skewed)."""
    p = (np.arange(1, _N_SEGMENTS + 1, dtype="float64")) ** -0.7
    return p / p.sum()


def _segment_map(dim_index: int, card: int, s: np.ndarray) -> np.ndarray:
    """Deterministic segment → dimension-value map (distinct per dim)."""
    return (s * 5 + 3 * dim_index + 1) % card


def dim_probs(dim: str) -> np.ndarray:
    """The *independent-draw* component of a dimension's distribution.

    Mildly skewed (``p_k ∝ (k+1)^-0.8``). The observed marginal is the
    mixture in :func:`dim_marginal`; this is the non-segment part.
    """
    card = ADS_DIMS[dim]
    p = (np.arange(1, card + 1, dtype="float64")) ** -0.8
    return p / p.sum()


def dim_marginal(dim: str) -> np.ndarray:
    """The true marginal distribution of a dimension in :func:`ads_pandas`:
    ``(1−mix)·dim_probs + mix·P(f_d(segment) = v)``. Seed-independent, so
    constraint generators can predict selectivity analytically."""
    card = ADS_DIMS[dim]
    d_i = list(ADS_DIMS).index(dim)
    seg_part = np.zeros(card)
    sp = segment_probs()
    for s in range(_N_SEGMENTS):
        seg_part[int(_segment_map(d_i, card, np.asarray(s)))] += sp[s]
    return (1.0 - _SEG_MIX) * dim_probs(dim) + _SEG_MIX * seg_part


def daily_factor(days: int, *, seed: int = 7) -> np.ndarray:
    """Per-day global multiplier: trend × weekly seasonality × AR(1) noise."""
    g = _rng(seed * 1_000_003 + 11)
    eps = g.normal(0.0, 0.05, days)
    u = np.empty(days)
    acc = 0.0
    for i in range(days):
        acc = 0.7 * acc + eps[i]
        u[i] = acc
    t = np.arange(days)
    # Trend + weekly season + a ~30-day (campaign/monthly) cycle + AR(1)
    # noise. The 30-day component matters for Exp-III: a 30-day training
    # window sees at most one full cycle and extrapolates it poorly, while
    # 150 days see five — which is how "more training days → better
    # forecasts" arises in the paper's data.
    return (
        (1.0 + 0.004 * t)
        * (1.0 + 0.2 * np.sin(2 * np.pi * (t % 7) / 7))
        * (1.0 + 0.25 * np.sin(2 * np.pi * t / 30.0 + 0.7))
        * np.exp(u)
    )


def ads_pandas(*, sf: float = 0.01, days: int = 40, seed: int = 7) -> pd.DataFrame:
    """The ads relation as a pandas frame (used by the DuckDB oracle too)."""
    n_day = max(1, int(_N_ADS_PER_DAY_PER_SF * sf))
    n = n_day * days
    g = _rng(seed)
    pdf = pd.DataFrame({"t": np.repeat(np.arange(days, dtype="int32"), n_day)})

    # Latent segment: with probability _SEG_MIX each dimension takes its
    # segment-mapped value, else an independent design draw. All dims are
    # thus mutually correlated (through s) — PIM's row-count factorization
    # fails on every multi-dim constraint, as on real profile data.
    s = g.choice(_N_SEGMENTS, size=n, p=segment_probs())
    for d_i, (dim, card) in enumerate(ADS_DIMS.items()):
        ind = g.choice(card, size=n, p=dim_probs(dim))
        pdf[dim] = np.where(
            g.random(n) < _SEG_MIX, _segment_map(d_i, card, s), ind
        ).astype("int32")

    # Per-value effect scores (fixed given `seed`): single-dim effects keep
    # weighted samplers honest; the per-segment activity multiplier and the
    # pairwise dim×dim interactions give the measure joint structure that
    # PIM's factorized estimate cannot capture.
    ge = _rng(seed * 7 + 1)
    s_age = ge.normal(0.0, 0.35, ADS_DIMS["age_group"])
    s_dev = ge.normal(0.0, 0.30, ADS_DIMS["device"])
    mu_seg = ge.normal(0.0, 0.7, _N_SEGMENTS)
    z = {dim: ge.normal(0.0, 1.0, card) for dim, card in ADS_DIMS.items()}
    dims_list = list(ADS_DIMS)
    pair_idx = [
        (i, j) for i in range(len(dims_list)) for j in range(i + 1, len(dims_list))
    ]
    chosen = ge.choice(len(pair_idx), size=12, replace=False)
    score = s_age[pdf["age_group"]] + s_dev[pdf["device"]] + mu_seg[s]
    for c in chosen:
        d1, d2 = (dims_list[k] for k in pair_idx[c])
        score = score + 0.30 * z[d1][pdf[d1]] * z[d2][pdf[d2]]

    base = daily_factor(days, seed=seed)[pdf["t"].to_numpy()]
    imp = np.floor(g.lognormal(2.0, 1.1, n) * base * np.exp(score)).astype("int64") + 1
    ctr = g.beta(2.0, 18.0, n)
    click = np.floor(imp * ctr).astype("int64") + 1
    # favorite is mostly its own process (weak link to impression), so the
    # four measures split into a {impression, click, cart} trend cluster and
    # a diverging favorite — grouping (Section 4.2) has a real decision.
    fav = np.floor((imp.astype("float64") ** 0.3) * g.lognormal(1.2, 0.9, n)).astype("int64") + 1
    cart = np.floor(click * g.beta(2.0, 8.0, n)).astype("int64") + 1
    pdf["favorite"], pdf["impression"], pdf["click"], pdf["cart"] = fav, imp, click, cart
    return pdf


def ads_data(spark: SparkSession, *, sf: float = 0.01, days: int = 40, seed: int = 7) -> DataFrame:
    """The ads relation as a Spark DataFrame (see :func:`ads_pandas`)."""
    return spark.createDataFrame(ads_pandas(sf=sf, days=days, seed=seed))


def random_constraint(
    target_selectivity: float, *, seed: int, max_dims: int = 3, min_dims: int = 1
) -> tuple[str, float]:
    """A random conjunctive constraint with ~``target_selectivity``.

    Returns ``(sql_where, predicted_selectivity)``. Per-dimension value
    masses come from the true marginals (:func:`dim_marginal`); their
    product predicts multi-dimension selectivity only approximately —
    the latent segment correlates dimensions, so actual selectivity can
    drift within a small factor of the prediction (tests bound it).
    """
    best: tuple[str, float] | None = None
    # Rejection loop: a draw can land far from the target when it picks a
    # low-cardinality dimension (a single gender value has mass ~0.6), so
    # keep drawing until predicted is within 2x of the target (or give up
    # after 64 attempts and return the closest draw on a log scale).
    for attempt in range(64):
        g = _rng(seed * 131 + attempt)
        n_dims = int(g.integers(min_dims, max_dims + 1))
        dims = list(g.choice(list(ADS_DIMS), size=n_dims, replace=False))
        per_dim_target = target_selectivity ** (1.0 / n_dims)
        clauses, predicted = [], 1.0
        for dim in dims:
            probs = dim_marginal(dim)
            order = g.permutation(len(probs))
            chosen, mass = [], 0.0
            for v in order:
                if mass >= per_dim_target:
                    break
                chosen.append(int(v))
                mass += probs[v]
            clauses.append(f"{dim} IN ({', '.join(map(str, sorted(chosen)))})")
            predicted *= mass
        cand = (" AND ".join(clauses), predicted)
        if best is None or abs(np.log(predicted / target_selectivity)) < abs(
            np.log(best[1] / target_selectivity)
        ):
            best = cand
        if 0.5 <= predicted / target_selectivity <= 2.0:
            return cand
    return best

