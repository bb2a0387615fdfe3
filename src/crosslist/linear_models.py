"""OLS market-model estimation, autocorrelation diagnostics, CAPM, and the
out-of-sample forecast standard error used to standardize abnormal returns."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .errors import (
    AllZeroResiduals,
    ExactFitNoVariance,
    RankDeficient,
    TooFewObservations,
    TooManyLags,
)

# Exact fits are detected relative to the scale of y; below this the residual
# variance is reported as exactly 0 and standardization downstream is refused.
_EXACT_FIT_RTOL = 1e-12

DW_POSITIVE_THRESHOLD = 1.5
DW_NEGATIVE_THRESHOLD = 2.5


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of y on an intercept plus the given regressors.

    `xtx_inverse` is the inverse Gram matrix of the intercept-augmented
    design, kept for forecast-error variances; `s2` is the residual
    variance with divisor n - k (k = regressors incl. intercept).
    """

    alpha: float
    betas: np.ndarray
    residuals: np.ndarray
    s2: float
    r_squared: float
    xtx_inverse: np.ndarray

    @property
    def coefficients(self) -> np.ndarray:
        """Intercept-first coefficient vector."""
        return np.concatenate([[self.alpha], self.betas])

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(self.s2 * np.diag(self.xtx_inverse))

    @property
    def t_stats(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coefficients / self.std_errors


@dataclass(frozen=True)
class BreuschGodfreyResult:
    """LM test of serial correlation in regression residuals."""

    lm_statistic: float
    p_value: float


@dataclass(frozen=True)
class DiagnosticsReport:
    dw_statistic: float
    bg_lm_statistic: float
    bg_p_value: float
    heteroskedastic_5pct: bool


def ols_fit(y, regressors) -> OlsFit:
    """Fit y = a + X b + e by least squares.

    `regressors` is a list of equal-length vectors (no intercept column;
    one is prepended).  Raises TooFewObservations unless n exceeds the
    number of columns, and RankDeficient if the augmented design does not
    have full column rank.  One thin SVD X = U diag(s) V' gives the rank
    test, the coefficients V diag(1/s) U'y and (X'X)^{-1} = V diag(1/s^2) V',
    so X'X is never formed.
    """
    y = np.asarray(y, dtype=float).ravel()
    cols = [np.asarray(r, dtype=float).ravel() for r in regressors]
    n = y.shape[0]
    for c in cols:
        if c.shape[0] != n:
            raise ValueError("all regressors must have the same length as y")
    X = np.column_stack([np.ones(n)] + cols)
    k = X.shape[1]
    if n <= k:
        raise TooFewObservations(f"need more than {k} observations, got {n}")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    # numpy.linalg.matrix_rank's default tolerance
    if np.count_nonzero(s > s.max() * max(n, k) * np.finfo(float).eps) < k:
        raise RankDeficient("intercept-augmented regressor matrix is rank deficient")
    coef = Vt.T @ (U.T @ y / s)
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    exact_tol = (_EXACT_FIT_RTOL * max(1.0, float(np.linalg.norm(y)))) ** 2
    s2 = 0.0 if rss <= exact_tol else rss / (n - k)
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss > 0.0:
        r_squared = 1.0 - rss / tss
    else:
        r_squared = 1.0 if s2 == 0.0 else 0.0
    # orthogonality is a structural identity of least squares; a violation
    # means numerical failure upstream, not a data problem
    scale = np.linalg.norm(X, axis=0) * np.linalg.norm(residuals)
    if np.any(np.abs(X.T @ residuals) > 1e-8 * np.maximum(scale, 1.0)):
        raise RuntimeError("least-squares residuals are not orthogonal to the design")

    return OlsFit(
        alpha=float(coef[0]),
        betas=coef[1:],
        residuals=residuals,
        s2=s2,
        r_squared=float(r_squared),
        xtx_inverse=(Vt.T / s**2) @ Vt,
    )


def durbin_watson(residuals) -> float:
    """DW = sum((e_t - e_{t-1})^2) / sum(e_t^2); always in [0, 4]."""
    e = np.asarray(residuals, dtype=float).ravel()
    if e.shape[0] < 2:
        raise ValueError(f"need >= 2 residuals, got {e.shape[0]}")
    denom = float(e @ e)
    if denom == 0.0:
        raise AllZeroResiduals("Durbin-Watson is undefined for all-zero residuals")
    return float(np.sum(np.diff(e) ** 2) / denom)


def classify_durbin_watson(dw: float) -> str:
    """Informal reading of the statistic; exact critical values are not tabulated."""
    if dw < DW_POSITIVE_THRESHOLD:
        return "positive autocorrelation suspected"
    if dw > DW_NEGATIVE_THRESHOLD:
        return "negative autocorrelation suspected"
    return "none"


def breusch_godfrey(fit: OlsFit, regressors, lags: int = 1) -> BreuschGodfreyResult:
    """LM serial-correlation test on the residuals of `fit`.

    Regresses the residuals on the original regressors plus `lags` lagged
    residuals (zero-padded at the sample start), then LM = n * R^2 of the
    auxiliary regression, referred to chi-squared with `lags` dof.
    """
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    cols = [np.asarray(r, dtype=float).ravel() for r in regressors]
    e = fit.residuals
    n = e.shape[0]
    if lags >= n - len(cols) - 1:
        raise TooManyLags(f"lags {lags} too large for {n} observations and {len(cols)} regressors")
    if fit.s2 == 0.0 or float(e @ e) == 0.0:
        raise AllZeroResiduals("Breusch-Godfrey is undefined for (numerically) zero residuals")
    lagged = []
    for ell in range(1, lags + 1):
        col = np.zeros(n)
        col[ell:] = e[:-ell]
        lagged.append(col)
    aux = ols_fit(e, cols + lagged)
    lm = n * aux.r_squared
    return BreuschGodfreyResult(lm_statistic=float(lm), p_value=float(chdtrc(lags, lm)))


def diagnostics_report(fit: OlsFit, regressors, lags: int = 1) -> DiagnosticsReport:
    bg = breusch_godfrey(fit, regressors, lags)
    return DiagnosticsReport(
        dw_statistic=durbin_watson(fit.residuals),
        bg_lm_statistic=bg.lm_statistic,
        bg_p_value=bg.p_value,
        heteroskedastic_5pct=bg.p_value < 0.05,
    )


def capm_expected_return(beta: float, risk_free: float, market_mean: float) -> float:
    """E(R) = R_f + beta * (R_market - R_f), all rates per period."""
    if not all(math.isfinite(v) for v in (beta, risk_free, market_mean)):
        raise ValueError("beta, risk_free, and market_mean must be finite")
    return risk_free + beta * (market_mean - risk_free)


def prediction_se(fit: OlsFit, new_rows) -> float | np.ndarray:
    """Out-of-sample forecast standard error at regressor rows of `fit`'s model.

    sqrt(s2 * (1 + x'(X'X)^{-1}x)) with x intercept-augmented; this is the
    day-specific scale used to standardize abnormal returns.  `new_rows` is
    one row of regressor values (the result is a float) or an m x k matrix
    of rows (the result has m entries; a NaN in a row gives NaN).
    """
    if fit.s2 == 0.0:
        raise ExactFitNoVariance("forecast standard error undefined for an exact fit")
    rows = np.asarray(new_rows, dtype=float)
    x = np.atleast_2d(rows)
    k = fit.betas.shape[0]
    if rows.ndim > 2 or x.shape[1] != k:
        raise ValueError(f"new_rows must hold rows of {k} entries, got shape {rows.shape}")
    x = np.column_stack([np.ones(x.shape[0]), x])
    se = np.sqrt(fit.s2 * (1.0 + np.einsum("ij,jk,ik->i", x, fit.xtx_inverse, x)))
    return float(se[0]) if rows.ndim < 2 else se
