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
`minimize` still see each run.
Returns are rescaled to unit residual variance internally and mapped back,
which keeps the optimizer's tolerances scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import OptimizeResult, minimize

from .errors import NonFiniteLikelihood, NonStationaryParameters, SeriesTooShort
from .linear_models import OlsFit, ols_fit
from .stats_core import ReturnSeries

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
    """Ground-truth process for the simulation oracle."""

    spec: GarchSpec
    true_mean_coefficients: tuple[float, float, float]
    true_alpha0: float
    true_alphas: tuple[float, ...]
    true_gammas: tuple[float, ...]
    length: int
    seed: int
    instrument_id: str = "sim"

    def __post_init__(self) -> None:
        if len(self.true_alphas) != self.spec.q or len(self.true_gammas) != self.spec.p:
            raise ValueError("true_alphas/true_gammas lengths must match the spec's q and p")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
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


def _series_values(x) -> np.ndarray:
    if isinstance(x, ReturnSeries):
        return x.values
    return np.asarray(x, dtype=float).ravel()


def _variance_filter(gammas, x) -> np.ndarray:
    """Apply the variance AR filter: y_t = x_t + sum_k gammas[k-1] * y_{t-k}.

    Equal to `lfilter([1], [1, -gammas], x, axis=0)` with zero initial
    state; `x` is a series of length T or a T x k matrix filtered column by
    column, and comes back as it is when there are no gammas.  Solved as
    the unit-lower-triangular banded system L y = x in LAPACK band storage:
    row k of `ab` holds -gammas[k-1], the k-th subdiagonal of L (LAPACK
    reads its first T - k entries), and row 0 the unit diagonal, which
    `diag="U"` leaves unread.
    """
    if not len(gammas):
        return x
    ab = np.empty((len(gammas) + 1, x.shape[0]), order="F")
    ab[0] = 1.0
    ab[1:] = -np.asarray(gammas, dtype=float)[:, None]
    y, info = dtbtrs(ab, x, uplo="L", diag="U")
    if info != 0:
        raise ValueError(f"dtbtrs failed with info={info}")
    return y


def _driving_term(eps2, alpha0, alphas, gammas, h0) -> np.ndarray:
    """alpha0 plus the squared-error lags, so that h = _variance_filter(gammas, drive).

    Pre-sample squared errors and variances are pinned at h0; with any
    memory (p + q > 0) the first in-sample variance is h0 itself.
    """
    T = eps2.shape[0]
    q = len(alphas)
    p = len(gammas)
    drive = np.full(T, alpha0, dtype=float)
    for j in range(1, q + 1):
        drive[:j] += alphas[j - 1] * h0
        drive[j:] += alphas[j - 1] * eps2[: T - j]
    for k in range(2, p + 1):
        drive[1:k] += gammas[k - 1] * h0
    if p or q:
        drive[0] = h0
    return drive


def _conditional_variances(eps, alpha0, alphas, gammas, h0) -> np.ndarray:
    """Variance recursion with pre-sample squared errors and variances pinned at h0."""
    return _variance_filter(gammas, _driving_term(eps * eps, alpha0, alphas, gammas, h0))


def _gaussian_loglik(eps, h) -> float:
    return float(-0.5 * np.sum(_LOG_2PI + np.log(h) + eps * eps / h))


def _natural(theta) -> np.ndarray:
    """Natural parameters (beta, alpha0, alphas, gammas) as one vector, from transformed ones."""
    params = theta.copy()
    params[3] = math.exp(min(theta[3], 60.0))
    e = np.exp(params[4:].clip(-_Z_CLIP, _Z_CLIP))
    params[4:] = e / (1.0 + e.sum())
    return params


def _decode(theta, q, p):
    params = _natural(theta)
    return params[:3], float(params[3]), params[4 : 4 + q], params[4 + q :]


def _encode(beta, alpha0, alphas, gammas) -> np.ndarray:
    c = np.concatenate([alphas, gammas])
    z = np.log(c / (1.0 - c.sum())) if c.size else np.empty(0)
    return np.concatenate([beta, [np.log(alpha0)], z])


def _loglik(params, y, X, q, p, h0, score=False):
    """Gaussian log-likelihood at natural parameters (beta, alpha0, alphas, gammas).

    The value is nan where alpha0 <= 0 or a conditional variance is not
    positive and finite.  With `score` the result is (loglik, gradient),
    the gradient being all nan wherever the value is.  The derivatives of
    h_t follow the same AR filter as h_t (Fiorentini, Calzolari & Panattoni
    1996), driven by the derivatives of the driving term; h_1 = h0 and the
    pre-sample lags are constants, exactly as in `_driving_term`.
    """
    alpha0 = params[3]
    alphas = params[4 : 4 + q]
    gammas = params[4 + q :]
    valid = alpha0 > 0
    if valid:
        eps = y - X @ params[:3]
        eps2 = eps * eps
        h = _variance_filter(gammas, _driving_term(eps2, alpha0, alphas, gammas, h0))
        valid = h.min() > 0.0 and h.max() < math.inf  # a nan in h fails both
    if not valid:
        return (math.nan, np.full(params.shape[0], math.nan)) if score else math.nan
    z2 = eps2 / h  # squared standardized residuals
    ll = float(-0.5 * (_LOG_2PI + np.log(h) + z2).sum())
    if not score:
        return ll

    # D[t, i] = d(driving term at t) / d params[i]; any lag pins h_1 at h0
    T = eps.shape[0]
    ex = eps[:, None] * X
    D = np.zeros((T, params.shape[0]), order="F")  # LAPACK's layout, for _variance_filter
    D[1 if p or q else 0 :, 3] = 1.0
    for j in range(1, q + 1):
        D[j:, :3] -= 2.0 * alphas[j - 1] * ex[: T - j]
        D[1:j, 3 + j] = h0
        D[j:, 3 + j] = eps2[: T - j]
    for k in range(1, p + 1):
        D[1:k, 3 + q + k] = h0
        D[k:, 3 + q + k] = h[: T - k]
    D = _variance_filter(gammas, D)
    grad = (0.5 * (z2 - 1.0) / h) @ D
    grad[:3] += (eps / h) @ X
    return ll, grad


def _transformed_loglik(theta, y, X, q, p, h0):
    """Log-likelihood at transformed parameters and its gradient in them.

    The natural-parameter score is chained through `_natural`'s log and
    simplex maps.  A clipped coordinate (theta[3] above 60, or z outside
    +/- _Z_CLIP) has zero gradient, as the decoded parameters do not move.
    """
    params = _natural(theta)
    ll, grad = _loglik(params, y, X, q, p, h0, score=True)
    coefs = params[4:]
    gc = grad[4:]
    grad[3] = grad[3] * params[3] if theta[3] <= 60.0 else 0.0
    grad[4:] = np.where(np.abs(theta[4:]) > _Z_CLIP, 0.0, coefs * (gc - coefs @ gc))
    return ll, grad


def _reentry_point(theta, y, X, q, p, h0):
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
    _, grad = _loglik(params, y, X, q, p, h0, score=True)
    s = np.append(params[4:], 1.0 - params[4 : 4 + q].sum() - params[4 + q :].sum())
    g = np.append(grad[4:], 0.0)
    on_face = s < _FACE
    if not on_face.any():
        return None
    trapped = on_face & (g > g[~on_face].min() + _KKT_TOL)
    if not trapped.any():
        return None
    s[trapped] = _REENTRY_MASS
    s[~trapped] *= (1.0 - s[trapped].sum()) / s[~trapped].sum()
    return _encode(params[:3], params[3], s[:q], s[q:-1])


def _hessian_std_errors(params, y, X, q, p, h0) -> np.ndarray:
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
        up = _loglik(params + e, y, X, q, p, h0, score=True)[1]
        if i == 3 and params[3] <= steps[3]:
            at = _loglik(params, y, X, q, p, h0, score=True)[1]
            beyond = _loglik(params + 2.0 * e, y, X, q, p, h0, score=True)[1]
            H[:, i] = (4.0 * up - 3.0 * at - beyond) / (2.0 * steps[i])
        else:
            down = _loglik(params - e, y, X, q, p, h0, score=True)[1]
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


def _bfgs(fun, x0, *, jac, gtol, maxiter, **_):
    """BFGS with `_wolfe_step` line searches, as a `scipy.optimize.minimize` custom method.

    `minimize(fun, x0, method=_bfgs, jac=True, options={"gtol": ..., "maxiter": ...})`
    passes `fun` and its gradient `jac`, memoized from one call; the hook's other
    keywords are unused.  The inverse Hessian starts at I and takes the BFGS update
    (Nocedal & Wright 2006, eq. 6.17) when s'y > 0.  Each line search first tries
    scipy's step min(1, 2.02 (f_k - f_{k-1}) / slope), with f_{-1} = f_0 + |g_0| / 2.
    Success is a gradient sup-norm of at most `gtol`; a line search that finds no
    step, or `maxiter` iterations, end the run without it.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x), jac(x)
    nfev, nit, status, eye = 1, 0, 0, np.eye(x.shape[0])
    H, f_prev = eye, f + math.sqrt(g @ g) / 2.0

    def phi(a):
        nonlocal nfev
        nfev += 1
        xa = x + a * direction
        fa, ga = fun(xa), jac(xa)
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
            A = eye - np.outer(s, y) / sy
            H = A @ H @ A.T + np.outer(s, s) / sy
        nit += 1
    message = ("gradient sup-norm at most gtol", "maximum iterations reached", "line search failed")[status]
    return OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev, status=status, success=not status, message=message)


def fit_garch_market_model(y, local_index, us_index, spec: GarchSpec = GarchSpec()) -> GarchFit:
    """Maximum-likelihood fit of the two-index market model with GARCH errors.

    Inputs may be ReturnSeries or plain arrays; all three must be aligned
    and of equal length >= 60.  With p = q = 0 the result is the exact
    homoskedastic MLE (OLS coefficients, constant variance RSS/n).

    Otherwise BFGS with the analytic score maximizes the likelihood from a
    fixed start.  One second run follows when the first stops trapped on a
    face of the simplex (see `_reentry_point`) or without success; the
    better run counts.  The best point evaluated is returned, so the
    likelihood never falls below the start's.  `converged` is True when the
    run that counts reported success, or when the sup-norm of the
    transformed-parameter score at the returned point is at most 1e-4; a
    fit that stops short is still returned, with converged=False.
    """
    yv = _series_values(y)
    loc = _series_values(local_index)
    us = _series_values(us_index)
    if not (yv.shape[0] == loc.shape[0] == us.shape[0]):
        raise ValueError("y, local_index, and us_index must have equal length")
    if all(isinstance(s, ReturnSeries) for s in (y, local_index, us_index)):
        if not (y.dates == local_index.dates == us_index.dates):
            raise ValueError("series dates are not aligned")
    n = yv.shape[0]
    if n < MIN_OBSERVATIONS:
        raise SeriesTooShort(f"need >= {MIN_OBSERVATIONS} observations, got {n}")

    X = np.column_stack([np.ones(n), loc, us])
    base = ols_fit(yv, [loc, us])
    resid = base.residuals
    resid_var = float(resid.var(ddof=1))
    if resid_var <= 0 or not np.isfinite(resid_var):
        raise NonFiniteLikelihood("OLS residual variance is not positive and finite")
    q, p = spec.q, spec.p

    if p == 0 and q == 0:
        sigma2 = float(resid @ resid) / n
        params = np.concatenate([base.coefficients, [sigma2]])
        h = np.full(n, sigma2)
        return GarchFit(
            mean_coefficients=base.coefficients,
            alpha0=sigma2,
            alphas=np.empty(0),
            gammas=np.empty(0),
            conditional_variances=h,
            log_likelihood=_gaussian_loglik(resid, h),
            std_errors=_hessian_std_errors(params, yv, X, q, p, resid_var),
            converged=True,
            ols=base,
        )

    # work on returns rescaled to unit OLS residual variance
    scale = 1.0 / np.sqrt(resid_var)
    ys = yv * scale
    Xs = np.column_stack([np.ones(n), loc * scale, us * scale])
    h0s = 1.0

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
    beta_s = base.coefficients.copy()
    beta_s[0] *= scale
    theta0 = _encode(beta_s, alpha0_start, alphas0, gammas0)

    best_f = np.inf
    best_x = theta0.copy()
    best_g = np.zeros_like(theta0)

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_f, best_x, best_g
        ll, grad = _transformed_loglik(theta, ys, Xs, q, p, h0s)
        if not (math.isfinite(ll) and np.isfinite(grad).all()):
            return _BIG, np.zeros_like(theta)
        if -ll < best_f:
            best_f = -ll
            best_x = theta.copy()
            best_g = -grad
        return -ll, -grad

    if objective(theta0)[0] >= _BIG:
        raise NonFiniteLikelihood("log-likelihood is not finite at the starting point")

    options = {"maxiter": 500, "gtol": 1e-7}
    res = minimize(objective, theta0, method=_bfgs, jac=True, options=options)
    # one fresh run when the first is trapped on a simplex face or stalled
    # (a failed line search on a stale inverse Hessian); the better run counts
    start = _reentry_point(best_x, ys, Xs, q, p, h0s)
    if start is not None or not res.success:
        retry = minimize(
            objective, best_x if start is None else start, method=_bfgs, jac=True, options=options
        )
        if retry.fun < res.fun:
            res = retry
    converged = bool(res.success) or float(np.max(np.abs(best_g))) <= _CONVERGED_GTOL

    beta_hat_s, alpha0_s, alphas_hat, gammas_hat = _decode(best_x, q, p)
    mean_coefficients = beta_hat_s.copy()
    mean_coefficients[0] /= scale
    alpha0_hat = alpha0_s / scale**2

    eps = yv - X @ mean_coefficients
    h = _conditional_variances(eps, alpha0_hat, alphas_hat, gammas_hat, resid_var)
    ll = _gaussian_loglik(eps, h)
    params = np.concatenate([mean_coefficients, [alpha0_hat], alphas_hat, gammas_hat])
    return GarchFit(
        mean_coefficients=mean_coefficients,
        alpha0=float(alpha0_hat),
        alphas=alphas_hat,
        gammas=gammas_hat,
        conditional_variances=h,
        log_likelihood=ll,
        std_errors=_hessian_std_errors(params, yv, X, q, p, resid_var),
        converged=converged,
        ols=base,
    )


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

    fits: dict[tuple[int, int], GarchFit] = {}
    last_error: Exception | None = None
    for spec in candidates:
        try:
            fits[(spec.p, spec.q)] = fit_garch_market_model(y, local_index, us_index, spec)
        except (NonFiniteLikelihood, SeriesTooShort) as exc:
            last_error = exc
    if not fits:
        assert last_error is not None
        raise last_error

    qualified: list[tuple[int, int]] = []
    for key, fit in fits.items():
        t = fit.variance_lag_t_stats
        if t.size == 0 or bool(np.all(np.isfinite(t)) and np.all(np.abs(t) >= 1.96)):
            qualified.append(key)
    if qualified:
        best = max(qualified, key=lambda key: fits[key].log_likelihood)
    elif (1, 1) in fits:
        best = (1, 1)
    else:
        best = max(fits, key=lambda key: fits[key].log_likelihood)
    return GarchSpec(p=best[0], q=best[1]), fits[best]


def simulate_garch(config: GarchSimConfig, local_index, us_index) -> ReturnSeries:
    """Simulate the market model with GARCH errors; the verification oracle.

    Deterministic for a fixed seed.  The first conditional variance is the
    unconditional variance alpha0 / (1 - sum(alphas) - sum(gammas)), and
    pre-sample lags are pinned at that value.  Index inputs may be
    ReturnSeries (whose dates carry over) or plain arrays (a weekday grid
    is synthesized).
    """
    loc = _series_values(local_index)
    us = _series_values(us_index)
    T = config.length
    if loc.shape[0] != T or us.shape[0] != T:
        raise ValueError("index series must match config.length")
    beta = np.asarray(config.true_mean_coefficients, dtype=float)
    alphas = np.asarray(config.true_alphas, dtype=float)
    gammas = np.asarray(config.true_gammas, dtype=float)
    alpha0 = float(config.true_alpha0)
    q, p = alphas.shape[0], gammas.shape[0]
    uncond = alpha0 / (1.0 - alphas.sum() - gammas.sum()) if q + p else alpha0

    rng = np.random.default_rng(config.seed)
    # the recursion runs on Python floats: the same IEEE operations as on
    # numpy scalars, at a fraction of the per-operation cost.  The lag lists
    # start with the pre-sample values, so lag j of the day just appended is
    # e2[~j]; each e ** 2 is formed once (not e * e, which can round differently)
    z = rng.standard_normal(T).tolist()
    alpha_lags = list(enumerate(alphas.tolist()))
    gamma_lags = list(enumerate(gammas.tolist()))
    uncond = float(uncond)
    e2 = [uncond] * q
    h = [uncond] * p
    eps = []
    ht = uncond  # equals alpha0 when q + p == 0
    for zt in z:
        e = math.sqrt(ht) * zt
        eps.append(e)
        e2.append(e ** 2)
        h.append(ht)
        ht = alpha0
        for j, a in alpha_lags:
            ht += a * e2[~j]
        for k, g in gamma_lags:
            ht += g * h[~k]

    X = np.column_stack([np.ones(T), loc, us])
    if isinstance(local_index, ReturnSeries):
        dates = local_index.dates
    else:
        grid = np.busday_offset(np.datetime64("2001-01-01"), np.arange(T), roll="forward")
        dates = tuple(grid.astype("datetime64[D]").tolist())
    return ReturnSeries(instrument_id=config.instrument_id, dates=dates, values=X @ beta + np.array(eps))


def unconditional_variance(fit: GarchFit) -> float:
    """Long-run error variance alpha0 / (1 - sum(alphas) - sum(gammas))."""
    return fit.alpha0 / (1.0 - fit.persistence)
