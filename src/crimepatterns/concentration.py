"""Concentration statistics for per-region event counts.

Covers the Lorenz curve and Gini coefficient, maximum-likelihood
fitting of a discrete power-law tail with the cutoff chosen by
Kolmogorov-Smirnov minimization (the Clauset-Shalizi-Newman recipe),
normalized likelihood-ratio comparison against discrete exponential
and lognormal alternatives (Vuong test), and a semiparametric
goodness-of-fit bootstrap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MIN_TAIL_SIZE = 10
MIN_OBSERVATIONS = 50
MIN_BOOTSTRAP = 100
DEFAULT_SIGNIFICANCE = 0.05

_ALPHA_LO = 1.0 + 1e-6
_ALPHA_HI = 30.0
_NEWTON_H = 1e-4  # central-difference half-width, scaled down near alpha = 1
_NEWTON_TOL = 1e-9  # an element stops once its step is at most this
_NEWTON_MAX_STEPS = 100  # guard against a search that stalls
_KS_BLOCK = 1 << 20  # (cutoff, value) pairs per zeta call of the KS scan
_KS_PROBE = 8  # leading tail values whose gaps bound a tail's KS distance
_TABLE_SIZE = 100_000  # support points of the sampler's inverse-CDF table
_GROUP = 32  # bootstrap replicates refit together
_TAIL_HEAD = 256  # leading support points of a bootstrap tail drawn by one multinomial
_ZETA_CHUNK = 1 << 14  # elements per pass of _zeta, which keeps its temporaries small
# Euler-Maclaurin denominators (2j)! / B_2j of the Hurwitz zeta sum (Cephes zeta.c)
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
            7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
            -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_SQRT1_2 = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOGNORMAL_H = 1e-3  # central-difference half-width in (mu, log sigma)
_LOGNORMAL_TOL = 1e-10  # the lognormal MLE stops once its step is at most this
_LOGNORMAL_MAX_STEPS = 100  # past this the lognormal MLE has not converged
# (mu, log sigma) offsets of the central differences: the centre, 1 and 2
# half-widths along each axis, and the four diagonal neighbours
_STENCIL = np.array([(0, 0), (-2, 0), (-1, 0), (1, 0), (2, 0), (0, -2), (0, -1), (0, 1), (0, 2),
                     (-1, -1), (-1, 1), (1, -1), (1, 1)], float)


@dataclass
class LorenzCurve:
    """Cumulative crime share versus cumulative region share, regions
    ordered from most to least loaded.  `points` has shape (n+1, 2) and
    starts at (0, 0); the curve is concave and sits on or above the
    diagonal."""

    points: np.ndarray
    gini: float


@dataclass
class PowerLawFit:
    alpha: float
    xmin: int
    ks_statistic: float
    n_tail: int


@dataclass
class LikelihoodRatioResult:
    statistic: float
    p_value: float
    favored: str  # "power_law", "alternative" or "inconclusive"
    mle_outcome: str | None = None  # lognormal: "interior", "boundary" or "not converged"


def lorenz(counts) -> LorenzCurve:
    """Lorenz curve and Gini coefficient of a count vector.

    Zeros and non-integer values are legitimate here (empty regions
    count toward the region share); negative or non-finite entries or an
    all-zero vector are errors.  The Gini value equals the normalized
    mean absolute pairwise difference.
    """
    x = np.asarray(counts, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("counts must be a non-empty vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("counts must be finite")
    if np.any(x < 0):
        raise ValueError("counts must be non-negative")
    total = x.sum()
    if total <= 0:
        raise ValueError("all counts are zero")
    n = x.size
    descending = np.sort(x)[::-1]
    points = np.column_stack(
        [np.arange(n + 1) / n, np.concatenate([[0.0], np.cumsum(descending)]) / total]
    )
    # Trapezoid area under the ascending-order curve; 1 - 2*area is the
    # Gini coefficient and matches the pairwise-difference definition.
    ascending = np.concatenate([[0.0], np.cumsum(descending[::-1])]) / total
    area = (ascending[:-1] + ascending[1:]).sum() / (2 * n)
    return LorenzCurve(points=points, gini=1.0 - 2.0 * area)


def _zeta(x, q) -> np.ndarray:
    """Hurwitz zeta(x, q), the sum of (q + k)**-x over k >= 0, elementwise
    for x > 1 and q >= 1, by the route of Cephes' zeta.c (Moshier), which
    scipy.special.zeta follows: nine direct terms, then twelve
    Euler-Maclaurin terms (DLMF 25.11), and above q = 1e8 the leading
    term of the asymptotic expansion (DLMF 25.11.43).  Cephes stops a sum
    early once a term falls below 2**-53 of it; adding every term moves a
    result by at most one ulp.  It underflows to 0 where Cephes does, as
    zeta(30, q) does above q = 4e10."""
    x, q = np.broadcast_arrays(np.asarray(x, float), np.asarray(q, float))
    shape, x, q = x.shape, x.ravel(), q.ravel()
    out = np.empty(x.size)
    for first in range(0, x.size, _ZETA_CHUNK):
        part = slice(first, first + _ZETA_CHUNK)
        xs, qs = x[part], q[part]
        a, s = qs.copy(), qs**-xs
        for _ in range(9):
            a += 1.0
            b = a**-xs
            s += b
        s += b * a / (xs - 1.0)
        s -= 0.5 * b
        rising, k = np.ones(xs.size), 0.0  # x (x + 1) ... (x + 2j - 2)
        for denominator in _ZETA_EM:
            rising *= xs + k
            b /= a
            s += rising * b / denominator
            k += 1.0
            rising *= xs + k
            b /= a
            k += 1.0
        far = qs > 1e8
        s[far] = (1.0 / (xs[far] - 1.0) + 1.0 / (2.0 * qs[far])) * qs[far] ** (1.0 - xs[far])
        out[part] = s
    return out.reshape(shape)


def _zeta_log_likelihood(alpha, log_mean, q):
    """Negative mean log-likelihood of a zeta(alpha, q) tail, up to sign."""
    with np.errstate(divide="ignore"):  # zeta(30, q) underflows to 0 above q = 4e10
        return alpha * log_mean + np.log(_zeta(alpha, q))


def _newton_min(objective, log_means, qs) -> np.ndarray:
    """Minimum over (1, 30] of a convex objective of an exponent, run
    elementwise over the broadcast shape of `log_means` and `qs`;
    objective(alphas, rows) evaluates the elements `rows` (indices into
    the flattened shape) at `alphas`, an array of shape (3, rows.size).

    Each element starts from the continuous MLE 1 + 1/(log_mean -
    log(q - 1/2)) and takes Newton steps on central differences, inside a
    bracket that the slope's sign narrows; a step that would leave the
    bracket bisects it instead.  An element stops once its step is at
    most _NEWTON_TOL, so its result does not depend on the others."""
    log_means, qs = np.broadcast_arrays(np.asarray(log_means, float), np.asarray(qs, float))
    with np.errstate(divide="ignore"):  # the difference rounds to 0 above q = 1e14
        start = 1.0 + 1.0 / (log_means.ravel() - np.log(qs.ravel() - 0.5))
    x = np.clip(start, _ALPHA_LO, _ALPHA_HI)
    lo = np.full(x.shape, _ALPHA_LO)
    hi = np.full(x.shape, _ALPHA_HI)
    rows = np.arange(x.size)
    for _ in range(_NEWTON_MAX_STEPS):
        if not rows.size:
            break
        a = x[rows]
        h = _NEWTON_H * np.minimum(1.0, a - 1.0)  # keeps a - h above 1
        f = objective(a + np.array([[-1.0], [0.0], [1.0]]) * h, rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (f[2] - f[0]) / (2.0 * h)
            curvature = (f[2] - 2.0 * f[1] + f[0]) / h**2
            target = a - slope / curvature
        lo[rows] = low = np.where(slope <= 0, a, lo[rows])
        hi[rows] = high = np.where(slope >= 0, a, hi[rows])
        newton = (curvature > 0) & (target > low) & (target < high)
        x[rows] = target = np.where(newton, target, 0.5 * (low + high))
        rows = rows[np.abs(target - a) > _NEWTON_TOL]
    return x.reshape(log_means.shape)


def _ks_rows(values, multiplicity, tail_n, starts, ends, alphas, qs, width=None) -> np.ndarray:
    """Largest gap between the empirical CDF of the tail values[start:end]
    and the fitted zeta(alpha, q) CDF, over the integers from q to the
    tail's `width`-th value (its last when None), for every (start, end,
    alpha, q) at once; over the whole tail this is the KS distance.

    Between observed neighbours a < w the empirical CDF is flat while
    the model's rises, so the gap peaks at a or at w - 1, where the model
    CDF is F(w) - w**-alpha / zeta(alpha, q).  One zeta call covers the
    (cutoff, tail value) pairs, in row blocks of about _KS_BLOCK pairs.
    A tail whose normalizer zeta(alpha, q) underflows to 0 cannot be
    evaluated; its gap is infinite."""
    cum = np.cumsum(multiplicity)
    below = cum - multiplicity  # observations under each distinct value
    norms = _zeta(alphas, qs)
    lengths = ends - starts if width is None else np.minimum(ends - starts, width)
    firsts = np.cumsum(lengths) - lengths  # each row's first pair
    gaps = np.empty(starts.size)
    for block in np.split(np.arange(starts.size), np.flatnonzero(np.diff(firsts // _KS_BLOCK)) + 1):
        heads = np.cumsum(lengths[block]) - lengths[block]
        rows = np.repeat(block, lengths[block])
        cols = np.arange(rows.size) + np.repeat(starts[block] - heads, lengths[block])
        c = starts[rows]
        ecdf = (cum[cols] - below[c]) / tail_n[c]
        with np.errstate(divide="ignore", invalid="ignore"):
            fitted = 1.0 - _zeta(alphas[rows], values[cols] + 1.0) / norms[rows]
            fitted_before = fitted - values[cols] ** -alphas[rows] / norms[rows]
        ecdf_before = (below[cols] - below[c]) / tail_n[c]
        # w - 1 is not observed; below a tail's first value lie q .. w - 1
        previous = np.where(cols > c, values[cols - 1], qs[rows] - 1.0)
        hole = values[cols] - 1 > previous
        gap = np.maximum(np.abs(ecdf - fitted), np.abs(ecdf_before - fitted_before) * hole)
        gaps[block] = np.maximum.reduceat(gap, heads)
    return np.where(norms > 0, gaps, np.inf)


def _first_min(v, owner):
    """Per run of equal `owner` labels (ascending), the index of its
    smallest v, the first on ties as np.argmin picks it."""
    return np.lexsort((v, owner))[np.flatnonzero(np.diff(owner, prepend=-1))]


def _best_ks(values, multiplicity, tail_n, starts, ends, alphas, qs):
    """Per replicate (a run of rows with one tail end), the row whose tail
    has the smallest KS distance (the first on ties) and that distance;
    row -1 where no row's fitted law can be evaluated.

    A tail's gap over its first _KS_PROBE values bounds its KS distance
    from below, so only tails whose bound does not exceed the KS distance
    of their replicate's tail with the smallest bound can win; only those
    are scanned in full.  The result is each replicate's argmin of its
    tails' KS distances."""
    tails, rows = (values, multiplicity, tail_n), (starts, ends, alphas, qs)
    owner = np.cumsum(np.diff(ends, prepend=-1) != 0) - 1
    lower = _ks_rows(*tails, *rows, width=_KS_PROBE)
    first = _first_min(lower, owner)
    evaluable = ~np.isinf(lower[first])
    upper = np.full(first.size, -np.inf)  # keeps no row of a replicate that cannot be evaluated
    upper[evaluable] = _ks_rows(*tails, *(a[first[evaluable]] for a in rows))
    kept = np.flatnonzero(lower <= upper[owner])
    ks = _ks_rows(*tails, *(a[kept] for a in rows))
    best, distance = np.full(first.size, -1), np.full(first.size, np.inf)
    chosen = _first_min(ks, owner[kept])
    best[evaluable], distance[evaluable] = kept[chosen], ks[chosen]
    return best, distance


def _positive_counts(counts) -> np.ndarray:
    """The positive entries of a count vector as int64: the one input
    check of fit_power_law, likelihood_ratio and gof_bootstrap.  Counts
    must be non-negative integers in the int64 range, integral floats
    included; anything else is a ValueError."""
    x = np.asarray(counts)
    if x.ndim != 1:
        raise ValueError("counts must be a vector")
    if x.dtype.kind not in "biu":
        x = x.astype(float)
        if not np.all(np.isfinite(x)):
            raise ValueError("counts must be finite")
        if np.any((x != np.round(x)) | (x >= 2.0**63)):
            raise ValueError("counts must be integers in the int64 range")
    if np.any(x < 0):
        raise ValueError("counts must be non-negative")
    return x[x > 0].astype(np.int64)


def fit_power_law(counts, xmin: int | None = None) -> PowerLawFit:
    """Fit a discrete power law p(x) proportional to x**-alpha for x >= xmin.

    The exponent comes from the zeta-normalized MLE, found by a
    safeguarded Newton search on (1, 30] that stops once its step is at
    most 1e-9 (see _newton_min).  When `xmin` is None every distinct value
    whose tail keeps at least MIN_TAIL_SIZE observations is tried and
    the cutoff with the smallest KS distance wins (ties go to the
    smallest cutoff).  Zero counts are ignored; at least
    MIN_OBSERVATIONS positive counts are required.
    """
    (fit,) = _fit_group([np.unique(_positive_counts(counts), return_counts=True)], xmin)
    if isinstance(fit, ValueError):
        raise fit
    return fit


def _fit_group(replicates, xmin: int | None = None) -> list:
    """fit_power_law of each replicate, given as its (distinct values,
    multiplicity), or the ValueError that fit_power_law raises for it.

    The replicates' values are laid end to end, so one exponent search
    and one KS scan of each kind serve every replicate's candidate
    cutoffs.  Each step works elementwise or within one replicate, so a
    replicate's fit does not depend on the rest of its group."""
    sizes = np.array([v.size for v, _ in replicates])
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(sizes.size), sizes)
    values = np.concatenate([v for v, _ in replicates]).astype(float)
    multiplicity = np.concatenate([m for _, m in replicates])
    cum = np.concatenate([[0], np.cumsum(multiplicity)])
    # Suffix aggregates within each replicate: tail size and sum of logs
    # for every candidate cutoff position.
    tail_n = cum[ends][owner] - cum[:-1]
    tail_logsum = np.concatenate(
        [np.cumsum(w[::-1])[::-1] for w in np.split(multiplicity * np.log(values), ends[:-1])]
    )
    if xmin is None:  # every value whose tail is long enough and holds two distinct values
        cutoffs = (tail_n >= MIN_TAIL_SIZE) & (np.arange(values.size) < ends[owner] - 1)
        problem = f"no cutoff leaves a tail of at least {MIN_TAIL_SIZE} observations"
    else:  # the first value from xmin on, if its tail is long enough
        first = (np.diff(owner, prepend=-1) != 0) | (np.roll(values, 1) < xmin)
        cutoffs = (tail_n >= MIN_TAIL_SIZE) & (values >= xmin) & first & (xmin >= 1)
        problem = (f"tail above xmin={xmin} holds fewer than {MIN_TAIL_SIZE} observations"
                   if xmin >= 1 else "xmin must be a positive integer")
    n = cum[ends] - cum[ends - sizes]
    fits = [ValueError(f"need at least {MIN_OBSERVATIONS} positive counts, got {k}")
            if k < MIN_OBSERVATIONS else ValueError(problem) for k in n]
    candidates = np.flatnonzero(cutoffs & (n >= MIN_OBSERVATIONS)[owner])
    qs = values[candidates] if xmin is None else np.full(candidates.size, float(xmin))
    log_means = tail_logsum[candidates] / tail_n[candidates]
    alphas = _newton_min(
        lambda a, rows: _zeta_log_likelihood(a, log_means[rows], qs[rows]), log_means, qs
    )
    tails = (values, multiplicity, tail_n)
    best, ks = _best_ks(*tails, candidates, ends[owner[candidates]], alphas, qs)
    for r, b, d in zip(np.unique(owner[candidates]), best, ks):
        fits[r] = (PowerLawFit(float(alphas[b]), int(qs[b]), float(d), int(tail_n[candidates[b]]))
                   if b >= 0 else
                   ValueError("no cutoff leaves a tail whose fitted law can be evaluated"))
    return fits


def _powerlaw_pointwise_loglik(x, alpha, xmin):
    return -alpha * np.log(x) - np.log(_zeta(alpha, float(xmin)))


def _geometric_tail_loglik(x, weights, xmin):
    """Log-likelihood at each distinct tail value x (observed `weights`
    times) of the discrete exponential (geometric) MLE on the tail:
    p(x) = (1-q) q**(x-xmin)."""
    shifted = x - xmin
    m = (weights * shifted).sum() / weights.sum()
    if m == 0:
        return np.zeros(x.size)  # degenerate: all mass at xmin
    q = m / (1.0 + m)
    return np.log1p(-q) + shifted * np.log(q)


def _log_ndtr(z) -> np.ndarray:
    """Log of the standard normal CDF, elementwise: from math.erfc down to
    z = -20, and below it, where erfc would underflow, from the
    asymptotic series -z**2/2 - log(-z sqrt(2 pi)) + log(1 - 1/z**2 +
    3/z**4 - ...) that scipy.special.log_ndtr (Cephes ndtr.c) uses."""
    z = np.asarray(z, float)
    upper = z > -1.0
    with np.errstate(divide="ignore", under="ignore"):  # erfc is 0 below z = -37.5, past the series
        half = 0.5 * np.asarray(_erfc(np.where(upper, z, -z) * _SQRT1_2), float)
        out = np.where(upper, np.log1p(-half), np.log(half))
    far = z <= -20.0
    if far.any():
        v = z[far]
        total, term = np.ones(v.size), np.ones(v.size)
        for k in range(1, 20, 2):  # (2k - 1)!! / (-z**2)**k: below 2**-53 by the tenth
            term *= -k / (v * v)
            total += term
        out[far] = -0.5 * v * v - np.log(-v) - _LOG_SQRT_2PI + np.log(total)
    return out


def _lognormal_cell_logprobs(x, xmin, mu, sigma):
    """Log cell probabilities of a discretized lognormal truncated to
    x >= xmin: mass of [x-1/2, x+1/2] under the continuous lognormal,
    renormalized by the mass above xmin - 1/2.

    Cell mass is taken as a CDF difference left of the median and a
    survival-function difference right of it; one-sided differences
    underflow to zero deep in the opposite tail.  `mu` and `sigma` may be
    columns, one row of cells each."""
    za = (np.log(x - 0.5) - mu) / sigma
    zb = (np.log(x + 0.5) - mu) / sigma
    cell = np.empty_like(za)
    left = zb <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ub, lb = _log_ndtr(zb[left]), _log_ndtr(za[left])
        cell[left] = ub + np.log1p(-np.exp(lb - ub))
        ua, va = _log_ndtr(-za[~left]), _log_ndtr(-zb[~left])
        cell[~left] = ua + np.log1p(-np.exp(va - ua))
    tail = _log_ndtr((mu - np.log(xmin - 0.5)) / sigma)
    return cell - tail


def _power_law_limit_loglik(x, weights, xmin) -> float:
    """Largest log-likelihood of the lognormal's power-law limit
    (mu -> -inf and sigma -> inf with mu / sigma**2 fixed): the continuous
    density t**-beta discretized to the same cells [x-1/2, x+1/2] and
    truncated at xmin - 1/2, maximized over beta."""
    lo, hi = np.log(x - 0.5), np.log(x + 0.5)
    base = np.log(xmin - 0.5)

    def negative_loglik(beta):
        e = 1.0 - np.asarray(beta)[..., None]
        cells = e * (lo - base) + np.log1p(-np.exp(e * (hi - lo)))
        return -(weights * cells).sum(axis=-1)

    log_mean = (weights * np.log(x)).sum() / weights.sum()
    beta = _newton_min(lambda b, rows: negative_loglik(b), log_mean, xmin)
    return float(-negative_loglik(beta))


def _lognormal_tail_loglik(x, weights, xmin):
    """The outcome of the discretized-lognormal MLE on the tail, and the
    log-likelihood at each distinct tail value x (observed `weights`
    times) of that fit, or None when the outcome is not "interior".

    The search runs over (mu, log sigma) from the moment estimates of
    log x: damped Newton steps on central differences (a step that does
    not lower the objective is halved; where the Hessian is not positive
    definite the step goes downhill instead), until a step is at most
    1e-10 ("interior"), or _LOGNORMAL_MAX_STEPS steps ("not converged").
    A fit that does not beat the lognormal's power-law limit is
    "boundary": the MLE runs off to that limit (mu -> -inf,
    sigma -> inf) and no interior lognormal is there to compare with."""

    def objective(points):
        """Negative log-likelihood at each (mu, log sigma) row of `points`;
        inf where it cannot be evaluated, as at a trial step far out."""
        mu, log_sigma = np.asarray(points).T[:, :, None]
        with np.errstate(all="ignore"):
            f = -(weights * _lognormal_cell_logprobs(x, xmin, mu, np.exp(log_sigma))).sum(axis=1)
        return np.where(np.isfinite(f), f, np.inf)

    logs = np.log(x)
    n = weights.sum()
    mean = (weights * logs).sum() / n
    sd = np.sqrt((weights * (logs - mean) ** 2).sum() / n)
    theta, h, converged = np.array([mean, np.log(max(sd, 0.1))]), _LOGNORMAL_H, False
    for _ in range(_LOGNORMAL_MAX_STEPS):
        f = objective(theta + h * _STENCIL)
        axes = f[1:9].reshape(2, 4)  # per axis: -2h, -h, +h, +2h
        # fourth-order central differences along each axis
        gradient = (8.0 * (axes[:, 2] - axes[:, 1]) - (axes[:, 3] - axes[:, 0])) / (12.0 * h)
        curvature = (16.0 * (axes[:, 1] + axes[:, 2]) - (axes[:, 0] + axes[:, 3]) - 30.0 * f[0])
        cross = (f[12] - f[10] - f[11] + f[9]) / 4.0
        hessian = np.array([[curvature[0] / 12.0, cross], [cross, curvature[1] / 12.0]]) / h**2
        if not np.isfinite(hessian).all():  # every stencil point enters the Hessian
            break
        if hessian[0, 0] > 0 and np.linalg.det(hessian) > 0:
            step = -np.linalg.solve(hessian, gradient)
        else:
            step = -gradient / max(np.abs(gradient).max(), 1.0)
        while np.abs(step).max() > _LOGNORMAL_TOL and not objective([theta + step])[0] < f[0]:
            step /= 2.0
        theta = theta + step
        if np.abs(step).max() <= _LOGNORMAL_TOL:
            converged = True
            break
    loglik = -objective([theta])[0]
    if -np.inf < loglik <= _power_law_limit_loglik(x, weights, xmin):
        return "boundary", None
    if not converged:
        return "not converged", None
    return "interior", _lognormal_cell_logprobs(x, xmin, theta[0], np.exp(theta[1]))


def likelihood_ratio(
    counts,
    fit: PowerLawFit,
    alternative: str = "exponential",
    significance: float = DEFAULT_SIGNIFICANCE,
) -> LikelihoodRatioResult:
    """Vuong-normalized log-likelihood ratio of the fitted power law
    against an alternative tail model, on the same tail x >= xmin.

    Both models are evaluated once per distinct tail value; the sum and
    the variance of the pointwise ratio are weighted by multiplicity.
    A positive statistic favors the power law.  The verdict is
    "inconclusive" when the two-sided normal p-value exceeds
    `significance`, which keeps sign noise from being over-read, and
    (statistic 0, p 1) when the lognormal MLE has no interior optimum;
    its outcome is `mle_outcome`.
    """
    x = _positive_counts(counts)
    x = x[x >= fit.xmin].astype(float)
    if x.size != fit.n_tail:
        raise ValueError("counts do not match the fitted tail")
    values, weights = np.unique(x, return_counts=True)
    outcome = None
    if alternative == "exponential":
        alt = _geometric_tail_loglik(values, weights, fit.xmin)
    elif alternative == "lognormal":
        outcome, alt = _lognormal_tail_loglik(values, weights, fit.xmin)
    else:
        raise ValueError(f"unknown alternative '{alternative}'")
    inconclusive = LikelihoodRatioResult(0.0, 1.0, "inconclusive", outcome)
    if alt is None or x.size < 2:
        return inconclusive
    diff = _powerlaw_pointwise_loglik(values, fit.alpha, fit.xmin) - alt
    if diff.min() == diff.max():  # no spread to normalize by
        return inconclusive
    total = (weights * diff).sum()
    sd = np.sqrt((weights * (diff - total / x.size) ** 2).sum() / x.size)
    statistic = total / (sd * np.sqrt(x.size))
    p_value = math.erfc(abs(statistic) * _SQRT1_2)  # 2 Phi(-|statistic|)
    if p_value > significance:
        favored = "inconclusive"
    else:
        favored = "power_law" if statistic > 0 else "alternative"
    return LikelihoodRatioResult(float(statistic), float(p_value), favored, outcome)


@functools.lru_cache(maxsize=8)
def _cdf_table(alpha: float, xmin: int):
    """The CDF at the first _TABLE_SIZE support points and the normalizer
    zeta(alpha, xmin); read-only, shared by every draw."""
    support = np.arange(xmin, xmin + _TABLE_SIZE, dtype=float)
    normalizer = float(_zeta(alpha, float(xmin)))
    cdf = np.cumsum(support**-alpha) / normalizer
    cdf.flags.writeable = False
    return cdf, normalizer


def sample_power_law(alpha: float, xmin: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the discrete power law by inverse-CDF lookup: each
    uniform is searched in the CDF of the first 100000 support points,
    built once per (alpha, xmin), and one past it (rare for any alpha > 1
    of interest) is solved by bisection on the zeta tail: exactly below
    2**53, and above it only onto integers x with float(x) != float(x + 1)."""
    if not 1 < alpha < np.inf:
        raise ValueError("alpha must exceed 1 and be finite")
    if xmin < 1:
        raise ValueError("xmin must be at least 1")
    return _quantile(rng.random(size), alpha, xmin)


def _quantile(u, alpha, xmin, floor=0) -> np.ndarray:
    """The power-law draw of each uniform u: its index in the table, at
    least `floor`, plus xmin, or past the table its tail quantile."""
    cdf, normalizer = _cdf_table(alpha, xmin)
    draws = np.maximum(np.searchsorted(cdf, u, side="left"), floor) + xmin
    past = draws == xmin + _TABLE_SIZE
    draws[past] = _tail_quantile(u[past], alpha, normalizer, xmin + _TABLE_SIZE)
    return draws


def _tail_quantile(u, alpha, normalizer, lo) -> np.ndarray:
    """Smallest x >= lo with survival zeta(alpha, x+1)/normalizer <= 1-u,
    for every u at once: each doubles its own bracket from lo, then is
    bisected in it.  A bracket stops at the int64 maximum.  Exact below
    2**53; above it neighbouring integers share a float survival, so the
    result is always an x with float(x) != float(x + 1)."""
    target = (1.0 - u) * normalizer
    top = np.iinfo(np.int64).max - 1  # the largest x whose x + 1 is an int64
    lo, hi = np.full((2, target.size), lo, np.int64)
    rows = np.arange(target.size)
    while rows.size:
        rows = rows[_zeta(alpha, (hi[rows] + 1).astype(float)) > target[rows]]
        if np.any(hi[rows] == top):
            raise ValueError("power-law draw exceeds the int64 range; "
                             f"alpha {alpha} is too close to 1")
        hi[rows] = np.minimum(hi[rows], top // 2) * 2
    rows = np.flatnonzero(lo < hi)
    while rows.size:
        mid = lo[rows] + (hi[rows] - lo[rows]) // 2
        below = _zeta(alpha, (mid + 1).astype(float)) <= target[rows]
        hi[rows[below]], lo[rows[~below]] = mid[below], mid[~below] + 1
        rows = rows[lo[rows] < hi[rows]]
    return lo


def _past_head(v, alpha, xmin) -> np.ndarray:
    """Power-law draws past the first _TAIL_HEAD support points, one per
    uniform v in [0, 1): u = c + (1 - c) v, c the CDF at the head's last
    point, is uniform on the rest of the CDF's range, and a u that rounds
    down to c still draws the first point past the head."""
    c = _cdf_table(alpha, xmin)[0][_TAIL_HEAD - 1]
    u = np.minimum(c + (1.0 - c) * v, np.nextafter(1.0, 0.0))  # rounding must not reach 1
    return _quantile(u, alpha, xmin, floor=_TAIL_HEAD)


def _draw_replicate(rng, n, p_tail, alpha, xmin, body_values, body_shares):
    """One bootstrap replicate of n counts as its (distinct values,
    multiplicity), ascending.

    Its tail size is binomial(n, p_tail).  The tail's multiplicities at
    the first _TAIL_HEAD support points and past them are one multinomial
    draw over the fitted law's probabilities; each draw past the head then
    takes its own uniform (_past_head).  The body's multiplicities are one
    multinomial draw over its distinct values with their empirical
    shares, which is resampling the body with replacement."""
    cdf = _cdf_table(alpha, xmin)[0]
    shares = np.append(np.diff(cdf[:_TAIL_HEAD], prepend=0.0), max(0.0, 1.0 - cdf[_TAIL_HEAD - 1]))
    m = int(rng.binomial(n, p_tail))
    tail = rng.multinomial(m, shares)
    past, past_counts = np.unique(_past_head(rng.random(tail[-1]), alpha, xmin), return_counts=True)
    head = np.flatnonzero(tail[:-1])
    body = rng.multinomial(n - m, body_shares) if body_values.size else body_values
    kept = np.flatnonzero(body)
    return (np.concatenate([body_values[kept], head + xmin, past]),
            np.concatenate([body[kept], tail[head], past_counts]))


def _gof_group(args) -> int:
    """How many replicates of one group have a KS distance beyond the
    observed one."""
    (replicates, seed, n, p_tail, alpha, xmin, body_values, body_shares, observed_ks) = args
    drawn = []
    for r in replicates:  # the stream of SeedSequence(seed).spawn(n_boot)[r]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))))
        drawn.append(_draw_replicate(rng, n, p_tail, alpha, xmin, body_values, body_shares))
    # a replicate that cannot be refit counts against the model
    return sum(isinstance(fit, PowerLawFit) and fit.ks_statistic > observed_ks
               for fit in _fit_group(drawn))


def gof_bootstrap(
    counts,
    fit: PowerLawFit,
    n_boot: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Semiparametric bootstrap p-value for the power-law fit.

    Each replicate redraws the data (body resampled, tail drawn from
    the fitted law), refits cutoff and exponent from scratch, and the
    p-value is the share of replicates whose KS distance beats the
    observed one.  A replicate is drawn as its distinct values and their
    multiplicities (see _draw_replicate), never as n single draws.
    Replicate r draws from its own stream, PCG64 of
    SeedSequence(seed).spawn(n_boot)[r], so runs with different seeds
    share no replicate and partial runs are reproducible.  Replicates are
    refit in groups of 32 (the last group may be smaller), and up to
    `workers` processes, never more than there are groups, share them
    out; a replicate's refit does not depend on its group, so neither the
    grouping nor `workers` changes the p-value.
    """
    if n_boot < MIN_BOOTSTRAP:
        raise ValueError(f"n_boot must be at least {MIN_BOOTSTRAP}")
    x = _positive_counts(counts)
    body_values, body_counts = np.unique(x[x < fit.xmin], return_counts=True)
    body_shares = body_counts / body_counts.sum()
    tasks = [
        (range(r, min(r + _GROUP, n_boot)), seed, x.size, fit.n_tail / x.size, fit.alpha,
         fit.xmin, body_values, body_shares, fit.ks_statistic)
        for r in range(0, n_boot, _GROUP)
    ]
    workers = min(workers, len(tasks))  # a pool starts all its processes at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            exceed = sum(pool.map(_gof_group, tasks))
    else:
        exceed = sum(map(_gof_group, tasks))
    return exceed / n_boot
