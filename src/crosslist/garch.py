"""Two-index market model with GARCH(p, q) errors, fitted by Gaussian MLE.

The mean equation regresses a firm's return on an intercept, the local
index return, and the US index return; the error's conditional variance
follows h_t = alpha0 + sum_j alphas[j] * e_{t-j}^2 + sum_k gammas[k] * h_{t-k}.

Estimation maximizes the conditional log-likelihood over transformed
parameters: alpha0 through a log map, and (alphas, gammas) jointly through
a logistic simplex map that keeps every coefficient nonnegative with a sum
strictly below one, so stationarity and positive variances hold for every
parameter vector the optimizer can reach.  A compact BFGS with a strong-Wolfe
line search (`_bfgs`) runs on the exact score (`_loglik`), called through
`scipy.optimize.minimize`'s custom-method hook so that tracers that wrap
`minimize` still see each run.  The hook is called without `jac`: the
objective returns the value and the gradient together, and `_bfgs` unpacks
both from one call, so scipy adds no memoizing wrapper around it.
Each evaluation runs two banded solves of one vector: the variance filter
forward for h, and its transpose backward for the score's adjoint.  Both
run in the buffers of one `_Likelihood` per fit and scale, which the
optimizer, the face check and the Hessian share.
Returns are rescaled to unit residual variance internally and mapped back,
which keeps the optimizer's tolerances scale-free.

`simulate_garch` simulates the model from a known process, the verification
oracle, and `simulate_bundle` a whole synthetic data bundle from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import OptimizeResult, minimize

from .errors import (
    ConfigError,
    InvalidSeries,
    NonFiniteLikelihood,
    NonPositivePrice,
    NonStationaryParameters,
    SeriesTooShort,
)
from .linear_models import OlsFit, ols_fit
from .market_data import InstrumentRecord, PriceSeries

MAX_VARIANCE_LAGS = 2
MIN_OBSERVATIONS = 60

_LOG_2PI = float(np.log(2.0 * np.pi))
_BIG = 1e10
_Z_CLIP = 40.0
# a lag coefficient or the slack 1 - sum(alphas, gammas) below _FACE sits on a
# face of the simplex; a trapped one re-enters at _REENTRY_MASS (see _reentry_point)
_FACE = 1e-4
_REENTRY_MASS = 1e-3
_KKT_TOL = 1e-3
# sup-norm of the transformed-parameter score that counts as a stationary point
_CONVERGED_GTOL = 1e-4
# strong Wolfe constants (sufficient decrease, curvature), and trials per line search
_C1, _C2 = 1e-4, 0.9
_LINE_SEARCH_TRIALS = 20


@dataclass(frozen=True)
class GarchSpec:
    """Lag orders: p conditional-variance lags (gammas), q squared-error lags (alphas)."""

    p: int = 1
    q: int = 1

    def __post_init__(self) -> None:
        for name, v in (("p", self.p), ("q", self.q)):
            if not 0 <= v <= MAX_VARIANCE_LAGS:
                raise ValueError(f"{name} must be in [0, {MAX_VARIANCE_LAGS}], got {v}")


@dataclass(frozen=True)
class GarchFit:
    """Fitted market model with GARCH errors.

    `std_errors` covers all parameters in the order: mean coefficients
    (intercept, local index, US index), alpha0, alphas, gammas.  `ols` is
    the least-squares fit of the same mean equation on the same window,
    which gives the optimizer's start and the (0, 0) closed form; the event
    study standardizes abnormal returns by its forecast standard error.

    `converged` is True when the BFGS run that counts reported success, or
    when the sup-norm of the score in the transformed parameters (log
    alpha0, simplex logits) on the rescaled returns is at most 1e-4 at the
    returned point.  The homoskedastic closed form is always converged.
    """

    mean_coefficients: np.ndarray
    alpha0: float
    alphas: np.ndarray
    gammas: np.ndarray
    conditional_variances: np.ndarray
    log_likelihood: float
    std_errors: np.ndarray
    converged: bool
    ols: OlsFit

    @property
    def spec(self) -> GarchSpec:
        return GarchSpec(p=self.gammas.shape[0], q=self.alphas.shape[0])

    @property
    def persistence(self) -> float:
        return float(self.alphas.sum() + self.gammas.sum())

    @property
    def variance_lag_t_stats(self) -> np.ndarray:
        """t statistics of alphas then gammas (the lag-selection criterion)."""
        q = self.alphas.shape[0]
        p = self.gammas.shape[0]
        values = np.concatenate([self.alphas, self.gammas])
        ses = self.std_errors[4 : 4 + q + p] if q + p else np.empty(0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return values / ses


@dataclass(frozen=True)
class GarchSimConfig:
    """Ground-truth process for the simulation oracle: q = len(true_alphas), p = len(true_gammas)."""

    true_mean_coefficients: tuple[float, float, float]
    true_alpha0: float
    true_alphas: tuple[float, ...]
    true_gammas: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(self.true_mean_coefficients) != 3:
            raise ValueError(f"true_mean_coefficients must hold 3 entries, got {len(self.true_mean_coefficients)}")
        for name, lags in (("true_alphas", self.true_alphas), ("true_gammas", self.true_gammas)):
            if len(lags) > MAX_VARIANCE_LAGS:
                raise ValueError(f"{name} must hold at most {MAX_VARIANCE_LAGS} entries, got {len(lags)}")
        _check_stationary(self.true_alpha0, self.true_alphas, self.true_gammas)


def _check_stationary(alpha0, alphas, gammas) -> None:
    if alpha0 <= 0:
        raise NonStationaryParameters(f"alpha0 must be > 0, got {alpha0}")
    if any(a < 0 for a in alphas) or any(g < 0 for g in gammas):
        raise NonStationaryParameters("alphas and gammas must be nonnegative")
    if sum(alphas) + sum(gammas) >= 1.0:
        raise NonStationaryParameters(
            f"sum of alphas and gammas must be < 1, got {sum(alphas) + sum(gammas)}"
        )


def _variance_filter(gammas, x, trans="N", ab=None) -> np.ndarray:
    """Apply the variance AR filter: y_t = x_t + sum_k gammas[k-1] * y_{t-k}.

    Equal to `lfilter([1], [1, -gammas], x, axis=0)` with zero initial
    state; `x` is a series of length T or a T x k matrix filtered column by
    column, and comes back as it is when there are no gammas.  Solved as
    the unit-lower-triangular banded system L y = x in LAPACK band storage:
    row k of `ab` holds -gammas[k-1], the k-th subdiagonal of L (LAPACK
    reads its first T - k entries), and row 0 the unit diagonal, which
    `diag="U"` leaves unread.  With trans="T" it solves L'y = x instead,
    the adjoint filter y_t = x_t + sum_k gammas[k-1] * y_{t+k}, run backward
    from zero after the last day.  A given `ab` already holds L, and `x`
    (contiguous) is then overwritten with y.
    """
    if not len(gammas):
        return x
    overwrite = ab is not None
    if ab is None:
        ab = np.empty((len(gammas) + 1, x.shape[0]), order="F")
        ab[0] = 1.0
        ab[1:] = -np.asarray(gammas, dtype=float)[:, None]
    y, info = dtbtrs(ab, x, uplo="L", trans=trans, diag="U", overwrite_b=overwrite)
    if info != 0:
        raise ValueError(f"dtbtrs failed with info={info}")
    return y


def _beyond_clip(theta) -> bool:
    """Whether a simplex logit lies outside +/- _Z_CLIP; on a Python list, cheaper than numpy here."""
    return max(map(abs, theta[4:].tolist()), default=0.0) > _Z_CLIP


def _natural(theta) -> np.ndarray:
    """Natural parameters (beta, alpha0, alphas, gammas) as one vector, from transformed ones."""
    params = theta.copy()
    params[3] = math.exp(min(theta[3], 60.0))
    e = np.exp(params[4:].clip(-_Z_CLIP, _Z_CLIP) if _beyond_clip(theta) else params[4:])
    params[4:] = e / (1.0 + e.sum())
    return params


def _decode(theta, q, p):
    params = _natural(theta)
    return params[:3], float(params[3]), params[4 : 4 + q], params[4 + q :]


def _encode(beta, alpha0, alphas, gammas) -> np.ndarray:
    c = np.concatenate([alphas, gammas])
    z = np.log(c / (1.0 - c.sum())) if c.size else np.empty(0)
    return np.concatenate([beta, [np.log(alpha0)], z])


def _lag_views(padded, T) -> np.ndarray:
    """Read-only T x m view of a buffer padded in front with m values: column j-1 is lag j."""
    return sliding_window_view(padded, T)[::-1][1:].T


class _Likelihood:
    """Buffers for the log-likelihood of one window (y, X) at lags (q, p), reused by each evaluation.

    The squared errors and the conditional variances are written into
    buffers padded in front with the pre-sample value h0, so `e2_lags` and
    `h_lags` are fixed views of their lags, e^2_{t-j} and h_{t-k}.  `ab`
    holds the variance filter's band matrix L for the forward solve of h
    and the backward solve of the score's adjoint `v`, whose buffer is
    padded at the back with zeros so that `v_leads` holds v_{t+j}.
    """

    def __init__(self, y, X, q, p, h0):
        T = y.shape[0]
        self.y, self.X, self.q, self.p, self.h0 = y, X, q, p, h0
        e2, h, v = np.full(q + T, h0), np.full(p + T, h0), np.zeros(T + q)
        self.e2, self.h, self.v = e2[q:], h[p:], v[:T]
        self.e2_lags, self.h_lags = _lag_views(e2, T), _lag_views(h, T)
        self.v_leads = sliding_window_view(v, T)[1:].T
        self.ab = np.empty((p + 1, T), order="F")
        self.ab[0] = 1.0


def _loglik(lik: _Likelihood, params, score=False):
    """Gaussian log-likelihood at natural parameters (beta, alpha0, alphas, gammas).

    The value is nan where alpha0 <= 0 or a conditional variance is not
    positive and finite.  With `score` the result is (loglik, gradient),
    the gradient being all nan wherever the value is.

    h = L^-1 d, with L the variance filter and d the driving term alpha0 +
    sum_j alphas[j] e^2_{t-j}; pre-sample lags are pinned at h0, and with
    any memory (p + q > 0) so is h_1.  The score is w'L^-1 D, with w =
    (z^2 - 1) / 2h and D the T x k derivative of d (for a gamma, the lagged
    variances).  Forward mode filters D column by column (Fiorentini,
    Calzolari & Panattoni 1996); the adjoint (Griewank & Walther 2008,
    ch. 3) solves v = L^-T w once, backward, and takes v'D from the lag
    views.  A pinned h_1 makes row 0 of D zero, so v_0 is dropped.
    """
    q, p, h0 = lik.q, lik.p, lik.h0
    alpha0 = params[3]
    alphas = params[4 : 4 + q]
    gammas = params[4 + q :]
    valid = alpha0 > 0
    if valid:
        eps = lik.y - lik.X @ params[:3]
        eps2 = np.multiply(eps, eps, out=lik.e2)
        h = lik.h
        h.fill(alpha0)
        for j in range(q):  # ((alpha0 + a_1 e2_1) + a_2 e2_2): a matrix product rounds differently
            h += alphas[j] * lik.e2_lags[:, j]
        for k in range(2, p + 1):
            h[1:k] += gammas[k - 1] * h0
        if p or q:
            h[0] = h0
        if p:
            lik.ab[1:] = -gammas[:, None]
            _variance_filter(gammas, h, ab=lik.ab)
        valid = h.min() > 0.0 and h.max() < math.inf  # a nan in h fails both
    if not valid:
        return (math.nan, np.full(params.shape[0], math.nan)) if score else math.nan
    z2 = eps2 / h  # squared standardized residuals
    ll = float(-0.5 * (_LOG_2PI + np.log(h) + z2).sum())
    if not score:
        return ll

    v = np.divide(0.5 * (z2 - 1.0), h, out=lik.v)
    if p:
        _variance_filter(gammas, v, "T", lik.ab)
    if p or q:
        v[0] = 0.0
    # D's mean columns are -2 alphas[j] e_{t-j} x_{t-j}, so v meets them j days ahead
    mean = (eps / h - 2.0 * eps * (lik.v_leads @ alphas)) @ lik.X
    return ll, np.concatenate([mean, [v.sum()], v @ lik.e2_lags, v @ lik.h_lags])


def _transformed_loglik(lik: _Likelihood, theta):
    """Log-likelihood at transformed parameters and its gradient in them.

    The natural-parameter score is chained through `_natural`'s log and
    simplex maps.  A clipped coordinate (theta[3] above 60, or z outside
    +/- _Z_CLIP) has zero gradient, as the decoded parameters do not move.
    """
    params = _natural(theta)
    ll, grad = _loglik(lik, params, score=True)
    coefs = params[4:]
    gc = grad[4:]
    grad[3] = grad[3] * params[3] if theta[3] <= 60.0 else 0.0
    grad[4:] = coefs * (gc - coefs @ gc)
    if _beyond_clip(theta):
        grad[4:][np.abs(theta[4:]) > _Z_CLIP] = 0.0
    return ll, grad


def _reentry_point(lik: _Likelihood, theta):
    """Start for a second BFGS run when the first is trapped on a simplex face, else None.

    The simplex map's gradient vanishes on its faces (dc/dz = c(1 - c) -> 0),
    so BFGS cannot raise a component it has driven to about zero even where
    the likelihood rises into the interior.  The components are the alphas,
    the gammas and the slack 1 - sum, whose natural gradient is zero.  One
    below _FACE is trapped when moving mass onto it from the interior
    component with the smallest gradient raises the likelihood (a violated
    Karush-Kuhn-Tucker condition); trapped components restart at
    _REENTRY_MASS, taken proportionally from the others.
    """
    params = _natural(theta)
    _, grad = _loglik(lik, params, score=True)
    # the simplex as `_natural` builds it, with the slack as a quotient: 1 - sum
    # can round to zero or below on a face, and every part must stay > 0
    e = np.exp(theta[4:].clip(-_Z_CLIP, _Z_CLIP))
    s = np.append(e, 1.0) / (1.0 + e.sum())
    g = np.append(grad[4:], 0.0)
    on_face = s < _FACE
    if not on_face.any():
        return None
    trapped = on_face & (g > g[~on_face].min() + _KKT_TOL)
    if not trapped.any():
        return None
    s[trapped] = _REENTRY_MASS
    s[~trapped] *= (1.0 - s[trapped].sum()) / s[~trapped].sum()
    return np.concatenate([params[:3], [np.log(params[3])], np.log(s[:-1] / s[-1])])


def _hessian_std_errors(lik: _Likelihood, params) -> np.ndarray:
    """Standard errors from -H, H the central-difference Jacobian of the analytic score.

    Column i is (g(x + s_i e_i) - g(x - s_i e_i)) / 2 s_i, s_i = 1e-5 |x_i| (floor 1e-8);
    near the cube root of machine epsilon, where truncation and rounding balance.
    When alpha0 <= s_3, the central stencil would leave the region alpha0 > 0
    where the likelihood is defined, and the alpha0 column is the second-order
    forward difference (4 g(x + s e) - 3 g(x) - g(x + 2 s e)) / 2 s instead.
    Halving the step does not serve: a fit can drive alpha0 to 1e-21, where
    alpha0 +/- alpha0 / 2 does not move the variances in double precision.
    """
    k = params.shape[0]
    steps = 1e-5 * np.maximum(np.abs(params), 1e-8)
    H = np.empty((k, k))
    for i in range(k):
        e = np.zeros(k)
        e[i] = steps[i]
        up = _loglik(lik, params + e, score=True)[1]
        if i == 3 and params[3] <= steps[3]:
            at = _loglik(lik, params, score=True)[1]
            beyond = _loglik(lik, params + 2.0 * e, score=True)[1]
            H[:, i] = (4.0 * up - 3.0 * at - beyond) / (2.0 * steps[i])
        else:
            down = _loglik(lik, params - e, score=True)[1]
            H[:, i] = (up - down) / (2.0 * steps[i])
    H = 0.5 * (H + H.T)
    if not np.all(np.isfinite(H)):
        return np.full(params.shape[0], np.nan)
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-H)
    diag = np.diag(cov)
    with np.errstate(invalid="ignore"):
        return np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic through the values and slopes at bracket ends lo and hi.

    Nocedal & Wright (2006), eq. 3.59, kept a tenth of the bracket from either
    end; the midpoint when the cubic has no minimizer.
    """
    (a0, f0, d0, _), (a1, f1, d1, _) = lo, hi
    t1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = t1 * t1 - d0 * d1
    if disc >= 0.0:
        t2 = math.copysign(math.sqrt(disc), a1 - a0)
        if d1 - d0 + 2.0 * t2:
            a = a1 - (a1 - a0) * (d1 + t2 - t1) / (d1 - d0 + 2.0 * t2)
            margin = 0.1 * abs(a1 - a0)
            return min(max(a, min(a0, a1) + margin), max(a0, a1) - margin)
    return 0.5 * (a0 + a1)


def _wolfe_step(phi, f0, d0, a):
    """A step meeting the strong Wolfe conditions, as phi's (a, value, slope, gradient), or None.

    f0 and d0 < 0 are the value and slope at step 0, `a` the first trial.  The
    step doubles until it brackets an acceptable one (Nocedal & Wright 2006,
    Algorithm 3.5), and the bracket is zoomed by `_cubic_step` (Algorithm 3.6),
    or bisected when two trials have not cut it to 2/3 (More & Thuente 1994).
    None after _LINE_SEARCH_TRIALS trials, or once the bracket is narrower than
    1e-14 of the step (MINPACK's relative tolerance on the step).
    """
    lo, hi, widths = (0.0, f0, d0, None), None, [math.inf, math.inf]
    for i in range(_LINE_SEARCH_TRIALS):
        _, f, d, _ = trial = phi(a)
        if f > f0 + _C1 * a * d0 or (i and f >= lo[1]):
            hi = trial
        elif abs(d) <= -_C2 * d0:
            return trial
        elif hi is None and d < 0.0:
            lo, a = trial, 2.0 * a
            continue
        else:
            if hi is None or d * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = trial
        widths.append(abs(hi[0] - lo[0]))
        if widths[-1] <= 1e-14 * max(lo[0], hi[0]):
            return None
        a = _cubic_step(lo, hi) if widths[-1] < 0.66 * widths[-3] else 0.5 * (lo[0] + hi[0])
    return None


def _bfgs(fun, x0, *, gtol, maxiter, **_):
    """BFGS with `_wolfe_step` line searches, as a `scipy.optimize.minimize` custom method.

    Call it as `minimize(fun, x0, method=_bfgs, options={"gtol": ..., "maxiter": ...})`,
    without `jac`: `fun(x)` returns the value and the gradient, `(f, g)`, from one
    call, and the hook's other keywords are unused.  The inverse Hessian starts at I
    and takes the BFGS update (Nocedal & Wright 2006, eq. 6.17) when s'y > 0.  Each
    line search first tries scipy's step min(1, 2.02 (f_k - f_{k-1}) / slope), with
    f_{-1} = f_0 + |g_0| / 2.  Success is a gradient sup-norm of at most `gtol`; a
    line search that finds no step, or `maxiter` iterations, end the run without it.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, nit, status, eye = 1, 0, 0, np.eye(x.shape[0])
    H, f_prev = eye, f + math.sqrt(g @ g) / 2.0

    def phi(a):
        nonlocal nfev
        nfev += 1
        xa = x + a * direction
        fa, ga = fun(xa)
        return a, fa, float(ga @ direction), ga

    while not np.abs(g).max() <= gtol:  # a nan gradient fails at the line search
        direction = -(H @ g)
        slope = float(g @ direction)
        step = None
        if nit < maxiter and slope < 0.0:
            first = min(1.0, 2.02 * (f - f_prev) / slope)
            step = _wolfe_step(phi, f, slope, first if first > 0.0 else 1.0)
        if step is None:
            status = 1 if nit == maxiter else 2
            break
        s, y = step[0] * direction, step[3] - g
        x, f_prev, f, g, sy = x + s, f, step[1], step[3], float(s @ y)
        if sy > 0.0:
            A = eye - s[:, None] * y / sy  # np.outer's product, without its call
            H = A @ H @ A.T + s[:, None] * s / sy
        nit += 1
    message = ("gradient sup-norm at most gtol", "maximum iterations reached", "line search failed")[status]
    return OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev, status=status, success=not status, message=message)


def fit_garch_market_model(y, local_index, us_index, spec: GarchSpec = GarchSpec()) -> GarchFit:
    """Maximum-likelihood fit of the two-index market model with GARCH errors.

    The three arrays must be aligned and of equal length >= 60.  With
    p = q = 0 the result is the exact homoskedastic MLE (OLS coefficients,
    constant variance RSS/n).

    Otherwise BFGS with the analytic score maximizes the likelihood from a
    fixed start.  One second run follows when the first stops trapped on a
    face of the simplex (see `_reentry_point`) or without success; the
    better run counts.  The best point evaluated is returned, so the
    likelihood never falls below the start's.  `converged` is True when the
    run that counts reported success, or when the sup-norm of the
    transformed-parameter score at the returned point is at most 1e-4; a
    fit that stops short is still returned, with converged=False.
    """
    yv, loc, us = (np.asarray(v, dtype=float).ravel() for v in (y, local_index, us_index))
    if not (yv.shape[0] == loc.shape[0] == us.shape[0]):
        raise ValueError("y, local_index, and us_index must have equal length")
    n = yv.shape[0]
    if n < MIN_OBSERVATIONS:
        raise SeriesTooShort(f"need >= {MIN_OBSERVATIONS} observations, got {n}")

    X = np.column_stack([np.ones(n), loc, us])
    base = ols_fit(yv, [loc, us])
    resid = base.residuals
    resid_var = float(resid.var(ddof=1))
    if base.s2 == 0.0 or not np.isfinite(resid_var):  # an exact fit leaves only rounding noise to fit
        raise NonFiniteLikelihood("the OLS fit is exact (zero residuals), or its residual variance is not finite")
    q, p = spec.q, spec.p

    lik = _Likelihood(yv, X, q, p, resid_var)
    if p == 0 and q == 0:
        params, converged = np.concatenate([base.coefficients, [float(resid @ resid) / n]]), True
    else:
        params, converged = _maximize(yv, loc, us, base.coefficients, resid_var, q, p)
    ll = _loglik(lik, params)
    h = lik.h.copy()  # the Hessian's evaluations reuse the buffer
    return GarchFit(
        mean_coefficients=params[:3],
        alpha0=float(params[3]),
        alphas=params[4 : 4 + q],
        gammas=params[4 + q :],
        conditional_variances=h,
        log_likelihood=ll,
        std_errors=_hessian_std_errors(lik, params),
        converged=converged,
        ols=base,
    )


def _maximize(yv, loc, us, coefficients, resid_var, q, p):
    """`fit_garch_market_model`'s BFGS runs, as (natural parameters, converged)."""
    # work on returns rescaled to unit OLS residual variance
    n = yv.shape[0]
    scale = 1.0 / np.sqrt(resid_var)
    ys = yv * scale
    Xs = np.column_stack([np.ones(n), loc * scale, us * scale])
    lik = _Likelihood(ys, Xs, q, p, 1.0)

    alphas0 = np.full(q, 0.01)
    if q:
        alphas0[0] = 0.05
    gammas0 = np.full(p, 0.02)
    if p:
        gammas0[0] = max(0.90 - 0.02 * (p - 1) - 0.01 * max(q - 1, 0), 0.05)
    if q == 0:
        # without squared-error feedback keep the start mildly persistent
        gammas0[0] = 0.5
    alpha0_start = max(1.0 - alphas0.sum() - gammas0.sum(), 1e-6)
    beta_s = coefficients.copy()
    beta_s[0] *= scale
    theta0 = _encode(beta_s, alpha0_start, alphas0, gammas0)

    best_f = np.inf
    best_x = theta0.copy()
    best_g = np.zeros_like(theta0)

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_f, best_x, best_g
        ll, grad = _transformed_loglik(lik, theta)
        if not (math.isfinite(ll) and np.isfinite(grad).all()):
            return _BIG, np.zeros_like(theta)
        if -ll < best_f:
            best_f = -ll
            best_x = theta.copy()
            best_g = -grad
        return -ll, -grad

    options = {"maxiter": 500, "gtol": 1e-7}
    res = minimize(objective, theta0, method=_bfgs, options=options)
    if best_f == np.inf:  # a non-finite start scores zero gradient, so the run stopped there
        raise NonFiniteLikelihood("log-likelihood is not finite at the starting point")
    # one fresh run when the first is trapped on a simplex face or stalled
    # (a failed line search on a stale inverse Hessian); the better run counts
    start = _reentry_point(lik, best_x)
    if start is not None or not res.success:
        retry = minimize(objective, best_x if start is None else start, method=_bfgs, options=options)
        if retry.fun < res.fun:
            res = retry
    converged = bool(res.success) or float(np.max(np.abs(best_g))) <= _CONVERGED_GTOL

    beta_hat_s, alpha0_s, alphas_hat, gammas_hat = _decode(best_x, q, p)
    mean_coefficients = beta_hat_s.copy()
    mean_coefficients[0] /= scale
    return np.concatenate([mean_coefficients, [alpha0_s / scale**2], alphas_hat, gammas_hat]), converged


def select_lags(
    y,
    local_index,
    us_index,
    max_p: int = 1,
    max_q: int = 1,
    include_homoskedastic: bool = False,
) -> tuple[GarchSpec, GarchFit]:
    """Pick lag orders by likelihood among specs whose lag coefficients are significant.

    Candidates are every (p, q) with 1 <= p <= max_p and 1 <= q <= max_q,
    plus (0, 0) when `include_homoskedastic` is set (it qualifies vacuously,
    having no lag coefficients).  A spec qualifies when every alpha and
    gamma has |t| >= 1.96; among qualifiers the highest log-likelihood
    wins.  If none qualifies the (1, 1) fit is returned as the fallback.
    """
    for name, v in (("max_p", max_p), ("max_q", max_q)):
        if not 1 <= v <= MAX_VARIANCE_LAGS:
            raise ValueError(f"{name} must be in [1, {MAX_VARIANCE_LAGS}], got {v}")
    candidates = [GarchSpec(p=p, q=q) for p in range(1, max_p + 1) for q in range(1, max_q + 1)]
    if include_homoskedastic:
        candidates.insert(0, GarchSpec(p=0, q=0))

    # every error the fit raises depends on the window alone, so the first
    # candidate raises it and the rest are never reached
    fits = [fit_garch_market_model(y, local_index, us_index, spec) for spec in candidates]
    qualified = []
    for fit in fits:
        t = fit.variance_lag_t_stats
        if t.size == 0 or bool(np.all(np.isfinite(t)) and np.all(np.abs(t) >= 1.96)):
            qualified.append(fit)
    if qualified:
        best = max(qualified, key=lambda fit: fit.log_likelihood)
    else:
        best = fits[candidates.index(GarchSpec(p=1, q=1))]
    return best.spec, best


def simulate_garch(config: GarchSimConfig, local_index, us_index) -> np.ndarray:
    """Simulate the market model with GARCH errors; the verification oracle.

    Returns one return per index return, as a float array.  Deterministic
    for a fixed seed.  The first conditional variance is the unconditional
    variance alpha0 / (1 - sum(alphas) - sum(gammas)), and pre-sample lags
    are pinned at that value.  Raises InvalidSeries unless the index
    returns are finite, non-empty and of equal length.
    """
    loc, us = (np.asarray(v, dtype=float).ravel() for v in (local_index, us_index))
    T = loc.shape[0]
    if not (0 < T == us.shape[0] and np.isfinite(loc).all() and np.isfinite(us).all()):
        raise InvalidSeries("index returns must be finite, non-empty and of equal length")
    beta = np.asarray(config.true_mean_coefficients, dtype=float)
    alphas = np.asarray(config.true_alphas, dtype=float)
    gammas = np.asarray(config.true_gammas, dtype=float)
    alpha0 = float(config.true_alpha0)
    q, p = alphas.shape[0], gammas.shape[0]
    uncond = alpha0 / (1.0 - alphas.sum() - gammas.sum()) if q + p else alpha0

    rng = np.random.default_rng(config.seed)
    # the recursion runs on Python floats: the same IEEE operations as on
    # numpy scalars, at a fraction of the per-operation cost.  The two lags of
    # e ** 2 and of h roll through four variables, pre-sample values first;
    # the coefficients are zero-padded to two lags, and each padded term adds
    # an exact +0.0.  Each e ** 2 is formed once (not e * e, which can round
    # differently)
    z = rng.standard_normal(T).tolist()
    a1, a2 = alphas.tolist() + [0.0] * (MAX_VARIANCE_LAGS - q)
    g1, g2 = gammas.tolist() + [0.0] * (MAX_VARIANCE_LAGS - p)
    ht = e2_1 = e2_2 = h_1 = h_2 = float(uncond)  # ht equals alpha0 when q + p == 0
    eps = []
    for zt in z:
        e = math.sqrt(ht) * zt
        eps.append(e)
        e2_1, e2_2 = e ** 2, e2_1
        h_1, h_2 = ht, h_1
        ht = alpha0 + a1 * e2_1 + a2 * e2_2 + g1 * h_1 + g2 * h_2

    X = np.column_stack([np.ones(T), loc, us])
    return X @ beta + np.array(eps)


_INDUSTRIES = ("Energy", "Transport", "Utilities", "Insurance", "Materials", "Telecom")
# business days from 2006-01-02, the first simulated date, through 9999-12-31,
# the last date `datetime.date` holds: np.busday_count("2006-01-02", "10000-01-01")
MAX_SIM_DAYS = 2_085_535


def _prices_from_returns(first_close: float, returns: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow to inf fails PriceSeries's check instead
        return first_close * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


def simulate_bundle(n_firms: int, n_days: int, effect: float, seed: int):
    """A synthetic bundle in memory, as `(records, local_index, us_index, prices)`.

    Firms follow the two-index market model with GARCH(1,1) errors; `effect`
    is added to each firm's return on its listing day.  `prices(record)`
    simulates that firm's closes, the same on every call, from a seed drawn
    here.  Bad settings raise ConfigError; a firm whose closes leave the
    floating-point range raises it only when `prices` is called for it.
    """
    if n_firms < 1:
        raise ConfigError(f"need at least 1 firm, got {n_firms}")
    if not 3 <= n_days <= MAX_SIM_DAYS:
        raise ConfigError(f"days must be in [3, {MAX_SIM_DAYS}], got {n_days}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(effect):
        raise ConfigError(f"effect must be finite, got {effect}")
    rng = np.random.default_rng(seed)
    # the first `n_days` business days from 2006-01-02, as `datetime64[D]`
    dates = np.busday_offset(np.datetime64("2006-01-02"), np.arange(n_days), roll="forward")
    n_returns = n_days - 1

    loc_ret = 0.0002 + 0.012 * rng.standard_normal(n_returns)
    us_ret = 0.0002 + 0.010 * rng.standard_normal(n_returns)
    local_index = PriceSeries("sse", dates, _prices_from_returns(100.0, loc_ret))
    us_index = PriceSeries("nyse", dates, _prices_from_returns(100.0, us_ret))

    # each firm simulates from its own seed, so drawing every firm's settings
    # first leaves the bundle generator's sequence as one loop would draw it
    lo = min(106, n_days - 1)
    hi = max(n_days - 106, lo)
    records = []
    firms = {}
    for i in range(n_firms):
        n_code = f"F{i:02d}"
        beta = (float(rng.normal(0.0, 2e-4)), float(rng.uniform(0.4, 1.2)), float(rng.uniform(0.1, 0.6)))
        sigma = float(rng.uniform(0.012, 0.025))
        alpha1, gamma1 = 0.08, 0.85
        event_idx = int(rng.integers(lo, hi + 1))
        firms[n_code] = event_idx, GarchSimConfig(
            true_mean_coefficients=beta,
            true_alpha0=sigma**2 * (1.0 - alpha1 - gamma1),
            true_alphas=(alpha1,),
            true_gammas=(gamma1,),
            seed=int(rng.integers(0, 2**63)),
        )
        # the manifest's columns, in order
        records.append(InstrumentRecord(
            f"Firm {i:02d}", str(600100 + i), n_code, _INDUSTRIES[i % len(_INDUSTRIES)],
            float(rng.uniform(2e9, 2.4e11)), dates[event_idx].item(), dates[0].item(), f"prices_{n_code}.csv",
        ))

    def prices(rec: InstrumentRecord) -> PriceSeries:
        event_idx, sim_config = firms[rec.n_code]
        returns = simulate_garch(sim_config, loc_ret, us_ret)
        returns[event_idx - 1] += effect
        try:
            return PriceSeries(rec.n_code, dates, _prices_from_returns(50.0, returns))
        except NonPositivePrice:
            raise ConfigError(
                f"firm {rec.n_code}'s simulated closes leave the floating-point range "
                f"(effect = {effect!r}, days = {n_days})"
            ) from None

    return records, local_index, us_index, prices


def unconditional_variance(fit: GarchFit) -> float:
    """Long-run error variance alpha0 / (1 - sum(alphas) - sum(gammas))."""
    return fit.alpha0 / (1.0 - fit.persistence)
