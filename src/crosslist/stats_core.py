"""The two-sided variance F-test behind the event study's variance report.

Sample variances use the n-1 divisor, consistent with the degrees of
freedom of the test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import fdtr, fdtrc

from .errors import DegenerateSample


@dataclass(frozen=True)
class FTestResult:
    """Two-sided F-test of equal variances."""

    ratio: float
    df_num: int
    df_den: int
    p_value: float
    significant_5pct: bool


def variance_f_test(sample_a, sample_b) -> FTestResult:
    """Two-sided F-test of var(a) against var(b).

    ratio = var(a)/var(b) with n-1 divisors; p = 2 * min(P(F<=f), P(F>=f))
    on F(n_a - 1, n_b - 1).  The test is two-sided because ratios on both
    sides of 1 are of interest.
    """
    a = np.asarray(sample_a, dtype=float).ravel()
    b = np.asarray(sample_b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise DegenerateSample(f"need >= 2 observations per sample, got {a.size} and {b.size}")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_a == 0.0 or var_b == 0.0:
        raise DegenerateSample("at least one sample has zero variance")
    ratio = var_a / var_b
    df_num = a.size - 1
    df_den = b.size - 1
    cdf = fdtr(df_num, df_den, ratio)
    sf = fdtrc(df_num, df_den, ratio)
    p = float(np.clip(2.0 * min(cdf, sf), 0.0, 1.0))
    return FTestResult(
        ratio=ratio,
        df_num=df_num,
        df_den=df_den,
        p_value=p,
        significant_5pct=p < 0.05,
    )
