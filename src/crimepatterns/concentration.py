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
_KS_PROBE = 8  # leading tail values whose gaps bound a tail's KS distance
_TABLE_SIZE = 100_000  # support points of the sampler's inverse-CDF table
_GROUP = 32  # bootstrap replicates decided together
_TAIL_HEAD = 256  # leading support points of a bootstrap tail drawn by one multinomial
_CHUNK = 1 << 14  # elements per batched pass, of _zeta and of the KS scan's row blocks
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
    zeta(30, q) does above q = 4e10; it runs in passes of _CHUNK elements."""
    x, q = np.broadcast_arrays(np.asarray(x, float), np.asarray(q, float))
    shape, x, q = x.shape, x.ravel(), q.ravel()
    out = np.empty(x.size)
    for first in range(0, x.size, _CHUNK):
        part = slice(first, first + _CHUNK)
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
        s[far] = (1.0 / (xs[far] - 1.0) + 0.5 / qs[far]) * qs[far] ** (1.0 - xs[far])
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
    (cutoff, tail value) pairs of a block of rows, a block starting where a
    row's first pair passes a multiple of _CHUNK: one pass plus at most a row.
    A tail whose normalizer zeta(alpha, q) underflows to 0 cannot be
    evaluated; its gap is infinite."""
    cum = np.cumsum(multiplicity)
    below = cum - multiplicity  # observations under each distinct value
    norms = _zeta(alphas, qs)
    lengths = ends - starts if width is None else np.minimum(ends - starts, width)
    firsts = np.cumsum(lengths) - lengths  # each row's first pair
    gaps = np.empty(starts.size)
    for block in np.split(np.arange(starts.size), np.flatnonzero(np.diff(firsts // _CHUNK)) + 1):
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


def _within(tails, starts, ends, alphas, qs, limit):
    """The rows (ascending) whose tail's KS distance is at most `limit`,
    those distances, and which rows' fitted law can be evaluated (its
    normalizer does not underflow; if it does, every gap is infinite).

    A row is dropped at the first of its growing lower bounds above the
    limit: its gap at its first value, over its first _KS_PROBE values,
    and in full.  Each is a max over some of the gaps that the next takes."""
    rows, evaluable = np.arange(starts.size), None
    for width in (1, _KS_PROBE, None):
        gaps = _ks_rows(*tails, starts[rows], ends[rows], alphas[rows], qs[rows], width)
        if evaluable is None:
            evaluable = ~np.isinf(gaps)
        rows, gaps = rows[gaps <= limit], gaps[gaps <= limit]
    return rows, gaps, evaluable


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


def _cutoff(xmin) -> int:
    """`xmin` as an int, if it is a positive integer (an integral float
    included): the one cutoff rule of fit_power_law, sample_power_law and
    _fitted_counts.  Anything else is a ValueError."""
    if not (xmin >= 1 and float(xmin).is_integer()):
        raise ValueError("xmin must be a positive integer")
    return int(xmin)


def _law(alpha, xmin) -> int:
    """The cutoff (see _cutoff) of a power law whose `alpha` must exceed 1
    and be finite; anything else is a ValueError."""
    if not 1 < alpha < np.inf:
        raise ValueError("alpha must exceed 1 and be finite")
    return _cutoff(xmin)


def _fitted_counts(counts, fit: PowerLawFit):
    """The positive counts (see _positive_counts) and the fit's cutoff:
    the one check of likelihood_ratio and gof_bootstrap that `fit` is a
    power law (see _law) whose tail holds fit.n_tail of the counts.
    Anything else is a ValueError."""
    x = _positive_counts(counts)
    xmin = _law(fit.alpha, fit.xmin)
    if np.count_nonzero(x >= xmin) != fit.n_tail:
        raise ValueError("counts do not match the fitted tail")
    return x, xmin


def fit_power_law(counts, xmin: int | None = None) -> PowerLawFit:
    """Fit a discrete power law p(x) proportional to x**-alpha for x >= xmin.

    The exponent comes from the zeta-normalized MLE, found by a
    safeguarded Newton search on (1, 30] that stops once its step is at
    most 1e-9 (see _newton_min).  When `xmin` is None every distinct value
    whose tail keeps at least MIN_TAIL_SIZE observations is tried and
    the cutoff with the smallest KS distance wins (ties go to the
    smallest cutoff); a given `xmin` must be a positive integer, an
    integral float included.  Zero counts are ignored; at least
    MIN_OBSERVATIONS positive counts are required.
    """
    return _fit(*np.unique(_positive_counts(counts), return_counts=True), xmin)


def _layout(replicates, xmin=None):
    """The replicates, each its (distinct values, multiplicity), laid end
    to end with their candidate cutoffs, as _fit and _exceeds read them:
    the tails (values as floats, multiplicity, and the tail size from
    each position on), each replicate's count of observations, and per
    candidate its position, replicate, that replicate's end, its cutoff q
    and the mean log of its tail."""
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
    else:  # the first value from xmin on, if its tail is long enough
        first = (np.diff(owner, prepend=-1) != 0) | (np.roll(values, 1) < xmin)
        cutoffs = (tail_n >= MIN_TAIL_SIZE) & (values >= xmin) & first
    n = cum[ends] - cum[ends - sizes]
    candidates = np.flatnonzero(cutoffs & (n >= MIN_OBSERVATIONS)[owner])
    qs = values[candidates] if xmin is None else np.full(candidates.size, float(xmin))
    return ((values, multiplicity, tail_n), n, candidates, owner[candidates],
            ends[owner[candidates]], qs, tail_logsum[candidates] / tail_n[candidates])


def _exponents(log_means, qs) -> np.ndarray:
    """The MLE exponent of each tail with these mean logs and cutoffs."""
    return _newton_min(
        lambda a, rows: _zeta_log_likelihood(a, log_means[rows], qs[rows]), log_means, qs
    )


def _fit(values, multiplicity, xmin=None) -> PowerLawFit:
    """fit_power_law of a sample given as its distinct values, ascending,
    and their multiplicities; the values may be floats past 2**63.

    One exponent search serves every candidate cutoff.  The candidate
    with the smallest gap over its first _KS_PROBE values is scanned in
    full, and its KS distance is the limit under which _within finds the
    others that can win."""
    xmin = None if xmin is None else _cutoff(xmin)
    tails, (n,), starts, _, ends, qs, log_means = _layout([(values, multiplicity)], xmin)
    if n < MIN_OBSERVATIONS:
        raise ValueError(f"need at least {MIN_OBSERVATIONS} positive counts, got {n}")
    if not starts.size:
        raise ValueError(
            f"no cutoff leaves a tail of at least {MIN_TAIL_SIZE} observations" if xmin is None
            else f"tail above xmin={xmin} holds fewer than {MIN_TAIL_SIZE} observations")
    alphas = _exponents(log_means, qs)
    rows = (starts, ends, alphas, qs)
    probed = np.argmin(_ks_rows(*tails, *rows, width=_KS_PROBE))
    limit = _ks_rows(*tails, *(a[[probed]] for a in rows))[0]
    kept, ks, evaluable = _within(tails, *rows, limit)
    if not evaluable.any():
        raise ValueError("no cutoff leaves a tail whose fitted law can be evaluated")
    best = np.argmin(ks)  # the first of the smallest, as kept ascends
    r = kept[best]
    return PowerLawFit(float(alphas[r]), int(qs[r]), float(ks[best]), int(tails[2][starts[r]]))


def _exceeds(replicates, threshold, xmin) -> np.ndarray:
    """Per replicate, whether _fit would fit it with a KS distance above
    `threshold`, decided without finding its best cutoff.

    A replicate that cannot be fit never exceeds.  One that can exceeds
    when every candidate cutoff's KS distance is above the threshold, so a
    single candidate _within the threshold settles the replicate.  The
    first one tried is the candidate at or next above `xmin`, where the
    law that drew the replicate starts; then the other candidates of the
    replicates left.  _within drops a candidate only when its KS distance
    is above the threshold, so the decision is the refit's."""
    tails, _, starts, owner, ends, qs, log_means = _layout(replicates)
    at = np.flatnonzero(tails[0][starts] >= xmin)
    first = np.zeros(starts.size, bool)
    first[at[np.diff(owner[at], prepend=-1) != 0]] = True  # each replicate's first from xmin on
    settled, evaluable = np.zeros((2, len(replicates)), bool)
    for stage in (first, ~first):
        rows = np.flatnonzero(stage & ~settled[owner])
        kept, _, fitted = _within(tails, starts[rows], ends[rows],
                                  _exponents(log_means[rows], qs[rows]), qs[rows], threshold)
        settled[owner[rows[kept]]] = True
        evaluable[owner[rows[fitted]]] = True
    return evaluable & ~settled


def _powerlaw_pointwise_loglik(x, alpha, xmin):
    return -alpha * np.log(x) - np.log(_zeta(alpha, float(xmin)))


def _geometric_tail_loglik(x, weights, xmin):
    """Log-likelihood at each distinct tail value x (observed `weights`
    times) of the discrete exponential (geometric) MLE on the tail:
    p(x) = (1-q) q**(x-xmin); None when q rounds to 1, a mean shift past
    about 2**53 that leaves no geometric law to evaluate."""
    shifted = x - xmin
    m = (weights * shifted).sum() / weights.sum()
    if m == 0:
        return np.zeros(x.size)  # degenerate: all mass at xmin
    q = m / (1.0 + m)
    if q == 1.0:
        return None
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
    1e-10 ("interior"), or for _LOGNORMAL_MAX_STEPS steps or until a
    stencil point cannot be evaluated ("not converged").
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
        if not np.isfinite(f).all():  # every stencil point enters the differences
            break
        axes = f[1:9].reshape(2, 4)  # per axis: -2h, -h, +h, +2h
        # fourth-order central differences along each axis
        gradient = (8.0 * (axes[:, 2] - axes[:, 1]) - (axes[:, 3] - axes[:, 0])) / (12.0 * h)
        curvature = (16.0 * (axes[:, 1] + axes[:, 2]) - (axes[:, 0] + axes[:, 3]) - 30.0 * f[0])
        cross = (f[12] - f[10] - f[11] + f[9]) / 4.0
        hessian = np.array([[curvature[0] / 12.0, cross], [cross, curvature[1] / 12.0]]) / h**2
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
    (statistic 0, p 1) when the lognormal MLE has no interior optimum
    (its outcome is `mle_outcome`) or the geometric MLE's q rounds to 1.
    `fit` must be a law of these counts: alpha finite and above 1, xmin a
    positive integer, and fit.n_tail counts at or above xmin; anything
    else is a ValueError (see _fitted_counts).
    """
    if not 0 < significance < 1:
        raise ValueError("significance must be inside (0, 1)")
    x, xmin = _fitted_counts(counts, fit)
    x = x[x >= xmin].astype(float)
    values, weights = np.unique(x, return_counts=True)
    outcome = None
    if alternative == "exponential":
        alt = _geometric_tail_loglik(values, weights, xmin)
    elif alternative == "lognormal":
        outcome, alt = _lognormal_tail_loglik(values, weights, xmin)
    else:
        raise ValueError(f"unknown alternative '{alternative}'")
    inconclusive = LikelihoodRatioResult(0.0, 1.0, "inconclusive", outcome)
    if alt is None or x.size < 2:
        return inconclusive
    diff = _powerlaw_pointwise_loglik(values, fit.alpha, xmin) - alt
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
    2**53, and above it only onto integers x with float(x) != float(x + 1).
    A draw past the int64 range is a ValueError."""
    xmin = _law(alpha, xmin)
    draws = _quantile(rng.random(size), alpha, xmin)
    if draws.dtype != np.int64:
        raise ValueError("power-law draw exceeds the int64 range; "
                         f"alpha {alpha} is too close to 1")
    return draws


def _quantile(u, alpha, xmin, floor=0) -> np.ndarray:
    """The power-law draw of each uniform u: its index in the table, at
    least `floor`, plus xmin, or past the table its tail quantile; float64
    when a draw passes the int64 range."""
    cdf, normalizer = _cdf_table(alpha, xmin)
    draws = np.maximum(np.searchsorted(cdf, u, side="left"), floor) + xmin
    past = draws == xmin + _TABLE_SIZE
    tail = _tail_quantile(u[past], alpha, normalizer, xmin + _TABLE_SIZE)
    draws = draws.astype(tail.dtype, copy=False)
    draws[past] = tail
    return draws


def _tail_quantile(u, alpha, normalizer, lo) -> np.ndarray:
    """Smallest x >= lo with survival zeta(alpha, x+1)/normalizer <= 1-u,
    for every u at once: each doubles its own bracket from lo, then is
    bisected in it.  A bracket stops at the int64 maximum.  Exact below
    2**53; above it neighbouring integers share a float survival, so the
    result is always an x with float(x) != float(x + 1).

    A u whose bracket the int64 range cannot hold is solved as a float
    instead, and the result is float64: the smallest float x above 2**63
    with zeta(alpha, x)/normalizer <= 1-u (x + 1 rounds to x there), found
    by bisecting the bit patterns of the positive floats, which order them
    as their values; the largest float when no float is that far out."""
    target = (1.0 - u) * normalizer
    top = np.iinfo(np.int64).max - 1  # the largest x whose x + 1 is an int64
    lo, hi = np.full((2, target.size), lo, np.int64)
    rows = np.arange(target.size)
    while rows.size:
        rows = rows[_zeta(alpha, (hi[rows] + 1).astype(float)) > target[rows]]
        lo[rows[hi[rows] == top]] = top + 1  # past the int64 range; solved as floats below
        rows = rows[hi[rows] < top]
        hi[rows] = np.minimum(hi[rows], top // 2) * 2
    rows = np.flatnonzero(lo < hi)
    while rows.size:
        mid = lo[rows] + (hi[rows] - lo[rows]) // 2
        below = _zeta(alpha, (mid + 1).astype(float)) <= target[rows]
        hi[rows[below]], lo[rows[~below]] = mid[below], mid[~below] + 1
        rows = rows[lo[rows] < hi[rows]]
    beyond = np.flatnonzero(lo > top)
    if not beyond.size:
        return lo
    bits = np.array([2.0**63, np.finfo(float).max]).view(np.int64)
    low, high = np.repeat(bits[:, None], beyond.size, axis=1)
    rows = np.arange(beyond.size)
    while rows.size:
        mid = low[rows] + (high[rows] - low[rows]) // 2
        below = _zeta(alpha, mid.view(float)) <= target[beyond[rows]]
        high[rows[below]], low[rows[~below]] = mid[below], mid[~below] + 1
        rows = rows[low[rows] < high[rows]]
    draws = lo.astype(float)
    draws[beyond] = low.view(float)
    return draws


def _past_head(v, alpha, xmin) -> np.ndarray:
    """Power-law draws past the first _TAIL_HEAD support points, one per
    uniform v in [0, 1): u = c + (1 - c) v, c the CDF at the head's last
    point, is uniform on the rest of the CDF's range, and a u that rounds
    down to c still draws the first point past the head.  Past the int64
    range the draws are floats (see _tail_quantile)."""
    c = _cdf_table(alpha, xmin)[0][_TAIL_HEAD - 1]
    u = np.minimum(c + (1.0 - c) * v, np.nextafter(1.0, 0.0))  # rounding must not reach 1
    return _quantile(u, alpha, xmin, floor=_TAIL_HEAD)


def _draw_group(rngs, n, p_tail, alpha, xmin, body_values, body_shares) -> list:
    """One bootstrap replicate of n counts per generator, each as its
    (distinct values, multiplicity), ascending.

    Its tail size is binomial(n, p_tail).  The tail's multiplicities at
    the first _TAIL_HEAD support points and past them are one multinomial
    draw over the fitted law's probabilities; each draw past the head then
    takes its own uniform.  The body's multiplicities are one multinomial
    draw over its distinct values with their empirical shares, which is
    resampling the body with replacement.  The uniforms of every replicate
    are mapped to draws past the head in one _past_head call, which works
    on each uniform alone."""
    cdf = _cdf_table(alpha, xmin)[0]
    shares = np.append(np.diff(cdf[:_TAIL_HEAD], prepend=0.0), max(0.0, 1.0 - cdf[_TAIL_HEAD - 1]))
    tails, uniforms, bodies = [], [], []
    for rng in rngs:
        m = int(rng.binomial(n, p_tail))
        tails.append(rng.multinomial(m, shares))
        uniforms.append(rng.random(tails[-1][-1]))
        bodies.append(rng.multinomial(n - m, body_shares) if body_values.size else body_values)
    pasts = np.split(_past_head(np.concatenate(uniforms), alpha, xmin),
                     np.cumsum([v.size for v in uniforms])[:-1])
    drawn = []
    for tail, body, past in zip(tails, bodies, pasts):
        past, past_counts = np.unique(past, return_counts=True)
        head = np.flatnonzero(tail[:-1])
        kept = np.flatnonzero(body)
        drawn.append((np.concatenate([body_values[kept], head + xmin, past]),
                      np.concatenate([body[kept], tail[head], past_counts])))
    return drawn


def _gof_group(args) -> int:
    """How many replicates of one group have a KS distance beyond the
    observed one; a replicate that cannot be refit counts against the
    model."""
    (replicates, seed, n, p_tail, alpha, xmin, body_values, body_shares, observed_ks) = args
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))))
            for r in replicates]  # the streams of SeedSequence(seed).spawn(n_boot)[r]
    drawn = _draw_group(rngs, n, p_tail, alpha, xmin, body_values, body_shares)
    return int(_exceeds(drawn, observed_ks, xmin).sum())


def gof_bootstrap(
    counts,
    fit: PowerLawFit,
    n_boot: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Semiparametric bootstrap p-value for the power-law fit, which must
    be a law of these counts, as likelihood_ratio requires.

    Each replicate redraws the data (body resampled, tail drawn from
    the fitted law), and the p-value is the share of replicates whose
    refit, cutoff and exponent searched from scratch, has a KS distance
    above the observed one; a replicate that cannot be refit counts
    against the model.  A replicate is drawn as its distinct values and
    their multiplicities (see _draw_group), never as n single draws, and
    every replicate is drawn.  Near alpha = 1 a draw can pass 2**63; the
    bootstrap's draws then go on as floats (sample_power_law raises).

    A replicate is decided, not refit (see _exceeds): it exceeds when it
    can be fit and every candidate cutoff's KS distance is above the
    observed one, so a candidate at or below it settles it: looked for at
    the observed cutoff first, then among the others, through the lower
    bounds of _within that the fit uses too.  That is the refit's answer,
    so the p-value is the one a full refit of every replicate gives.

    Replicate r draws from its own stream, PCG64 of
    SeedSequence(seed).spawn(n_boot)[r], so runs with different seeds
    share no replicate and partial runs are reproducible.  Replicates are
    decided in groups of 32 (the last group may be smaller), and up to
    `workers` processes, never more than there are groups, share them
    out; a replicate's decision does not depend on its group, so neither
    the grouping nor `workers` changes the p-value.
    """
    if n_boot < MIN_BOOTSTRAP:
        raise ValueError(f"n_boot must be at least {MIN_BOOTSTRAP}")
    x, xmin = _fitted_counts(counts, fit)
    body_values, body_counts = np.unique(x[x < xmin], return_counts=True)
    body_shares = body_counts / body_counts.sum()
    tasks = [
        (range(r, min(r + _GROUP, n_boot)), seed, x.size, fit.n_tail / x.size, fit.alpha,
         xmin, body_values, body_shares, fit.ks_statistic)
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
