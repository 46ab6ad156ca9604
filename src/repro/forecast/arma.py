"""ARMA(p,q) forecasting — eq. (3) of the paper.

Fitting is by conditional sum of squares (CSS): residuals are computed
recursively with pre-sample residuals set to 0, and the squared-residual
sum is minimized over (intercept, α₁..α_p, β₁..β_q) with Nelder–Mead.
CSS is the classic stand-in for full MLE (statsmodels' default start),
adequate for t₀ ≈ 150 training points. Stationarity/invertibility are
enforced with a smooth penalty on polynomial roots inside the unit
circle.

Forecast intervals come from the MA(∞) ψ-weights:
``Var[M_{T+h} - M̂_{T+h|T}] = σ² Σ_{j<h} ψ_j²`` and a normal quantile —
exactly the textbook construction the paper relies on in Section 3.1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.forecast.optim import MinimizeResult, nelder_mead, norm_ppf


def css_residuals(x: np.ndarray, c: float, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
    """Conditional residuals e_t of an ARMA model on series ``x``.

    ``e_t = x_t - c - Σ ar_i x_{t-i} - Σ ma_j e_{t-j}``; the first
    ``p`` points (and pre-sample e's) are conditioned on as zeros.
    """
    p, q = len(ar), len(ma)
    n = len(x)
    # AR part is a fixed linear filter of x — vectorize it; only the MA
    # feedback through past residuals is inherently sequential.
    arpart = x.copy() - c
    for i in range(p):
        arpart[p:] -= ar[i] * x[p - 1 - i : n - 1 - i]
    if q == 0:
        return arpart[p:]
    # The MA recursion runs on Python floats, several times faster than
    # indexing numpy scalars. Every step subtracts the same products in the
    # same order as the plain loop (one term per past residual, zeros before
    # t = p included), so the result is bit-identical to it.
    a, m = arpart.tolist(), ma.tolist()
    e = [0.0] * n
    t0 = min(max(p, q), n)
    for t in range(p, t0):  # fewer than q past residuals exist yet
        acc = a[t]
        for j in range(t):
            acc -= m[j] * e[t - 1 - j]
        e[t] = acc
    if q == 1 and t0 < n:
        (m1,) = m
        e1 = e[t0 - 1]
        for t in range(t0, n):
            e1 = a[t] - m1 * e1
            e[t] = e1
    elif q == 2 and t0 < n:
        m1, m2 = m
        e1, e2 = e[t0 - 1], e[t0 - 2]
        for t in range(t0, n):
            e1, e2 = a[t] - m1 * e1 - m2 * e2, e1
            e[t] = e1
    else:
        for t in range(t0, n):
            acc = a[t]
            for j in range(q):
                acc -= m[j] * e[t - 1 - j]
            e[t] = acc
    return np.array(e[p:])


def _root_penalty(coefs: np.ndarray, kind: str) -> float:
    """Smooth penalty pushing AR/MA polynomial roots outside the unit circle.

    For AR coefficients α the characteristic polynomial is
    ``1 - α₁ z - ... - α_p z^p`` (for MA: ``1 + β₁ z + ...``); roots with
    |z| ≤ 1 violate stationarity (invertibility).
    """
    if len(coefs) == 0:
        return 0.0
    # If Σ|c_i|·1.05^i < 1, then |Σ c_i z^i| < 1 on |z| ≤ 1.05 (triangle
    # inequality), so no root lies there and every term below is exactly 0.
    # The 1e-9 margin keeps a root just outside 1.05 from being computed
    # as inside by np.roots.
    bound, r = 0.0, 1.0
    for c in coefs.tolist():
        r *= 1.05
        bound += abs(c) * r
    if bound < 1.0 - 1e-9:
        return 0.0
    sign = -1.0 if kind == "ar" else 1.0
    poly = np.concatenate(([1.0], sign * coefs))
    roots = np.roots(poly[::-1])  # numpy wants highest degree first
    if len(roots) == 0:
        return 0.0
    viol = np.clip(1.05 - np.abs(roots), 0.0, None)
    return float(1e4 * np.sum(viol**2))


@dataclass
class ARMAResult:
    """A fitted ARMA(p,q) model on a (possibly standardized) series."""

    p: int
    q: int
    const: float
    ar: np.ndarray
    ma: np.ndarray
    sigma2: float
    aic: float
    resid: np.ndarray
    x: np.ndarray = field(repr=False)

    def psi_weights(self, h: int) -> np.ndarray:
        """MA(∞) weights ψ_0..ψ_{h-1} of the fitted process."""
        psi = np.zeros(h)
        if h == 0:
            return psi
        psi[0] = 1.0
        for j in range(1, h):
            acc = self.ma[j - 1] if j - 1 < self.q else 0.0
            for i in range(1, min(j, self.p) + 1):
                acc += self.ar[i - 1] * psi[j - i]
            psi[j] = acc
        return psi

    def forecast(self, h: int, *, conf: float = 0.9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forecast ``h`` steps ahead: (point, lower, upper) arrays.

        Iterative: future shocks are set to their mean 0; the last ``q``
        fitted residuals feed the MA part of the first forecasts.
        """
        x, e = list(self.x), np.zeros(len(self.x))
        e[self.p:] = self.resid
        e = list(e)
        out = np.empty(h)
        for step in range(h):
            t = len(x)
            acc = self.const
            for i in range(self.p):
                acc += self.ar[i] * x[t - 1 - i]
            for j in range(self.q):
                idx = t - 1 - j
                if idx >= 0:
                    acc += self.ma[j] * e[idx]
            x.append(acc)
            e.append(0.0)
            out[step] = acc
        psi = self.psi_weights(h)
        se = np.sqrt(self.sigma2 * np.cumsum(psi**2))
        z = norm_ppf(0.5 + conf / 2)
        return out, out - z * se, out + z * se


def fit_arma(x: np.ndarray, p: int, q: int, *, max_iter: int = 2000) -> ARMAResult:
    """Fit ARMA(p,q) to ``x`` by CSS + Nelder–Mead."""
    x = np.asarray(x, dtype="float64")
    n = len(x)
    if n <= p + q + 1:
        raise ValueError(f"series too short ({n}) for ARMA({p},{q})")

    mean = float(x.mean())
    pen_scale = max(1.0, np.var(x))

    def unpack(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        return float(theta[0]), theta[1 : 1 + p], theta[1 + p : 1 + p + q]

    def objective(theta: np.ndarray) -> float:
        c, ar, ma = unpack(theta)
        pen = _root_penalty(ar, "ar") + _root_penalty(ma, "ma")
        e = css_residuals(x, c, ar, ma)
        return float(np.sum(e * e)) + pen * pen_scale

    # Start from white noise around the mean; seed AR1 with lag-1 autocorr.
    theta0 = np.zeros(1 + p + q)
    theta0[0] = mean
    if p >= 1 and n > 2:
        xc = x - mean
        denom = float(np.dot(xc, xc))
        if denom > 0:
            r1 = float(np.dot(xc[1:], xc[:-1])) / denom
            theta0[1] = np.clip(r1, -0.9, 0.9)
            theta0[0] = mean * (1.0 - theta0[1])

    res: MinimizeResult = nelder_mead(objective, theta0, max_iter=max_iter)
    c, ar, ma = unpack(res.x)
    e = css_residuals(x, c, ar, ma)
    neff = len(e)
    sigma2 = float(np.sum(e * e)) / max(1, neff)
    k = 1 + p + q
    aic = neff * np.log(max(sigma2, 1e-300)) + 2 * (k + 1)
    return ARMAResult(p, q, c, ar.copy(), ma.copy(), sigma2, float(aic), e, x)
