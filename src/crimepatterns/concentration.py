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
_GUIDE = 1024  # buckets of the sampler's guide table
_GROUP = 32  # bootstrap replicates refit together


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


def lorenz(counts) -> LorenzCurve:
    """Lorenz curve and Gini coefficient of a count vector.

    Zeros are legitimate here (empty regions count toward the region
    share); negative entries or an all-zero vector are errors.  The
    Gini value equals the normalized mean absolute pairwise difference.
    """
    x = np.asarray(counts, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("counts must be a non-empty vector")
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


def _zeta_log_likelihood(alpha, log_mean, q):
    """Negative mean log-likelihood of a zeta(alpha, q) tail, up to sign."""
    from scipy.special import zeta

    with np.errstate(divide="ignore"):  # zeta(30, q) underflows to 0 above q = 4e10
        return alpha * log_mean + np.log(zeta(alpha, q))


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
    from scipy.special import zeta

    cum = np.cumsum(multiplicity)
    below = cum - multiplicity  # observations under each distinct value
    norms = zeta(alphas, qs)
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
            fitted = 1.0 - zeta(alphas[rows], values[cols] + 1.0) / norms[rows]
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
    x = np.asarray(counts)
    if x.ndim != 1:
        raise ValueError("counts must be a vector")
    if np.any(x < 0):
        raise ValueError("counts must be non-negative")
    (fit,) = _fit_group([np.unique(x[x > 0].astype(np.int64), return_counts=True)], xmin)
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
    from scipy.special import zeta

    return -alpha * np.log(x) - np.log(zeta(alpha, float(xmin)))


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


def _lognormal_cell_logprobs(x, xmin, mu, sigma):
    """Log cell probabilities of a discretized lognormal truncated to
    x >= xmin: mass of [x-1/2, x+1/2] under the continuous lognormal,
    renormalized by the mass above xmin - 1/2.

    Cell mass is taken as a CDF difference left of the median and a
    survival-function difference right of it; one-sided differences
    underflow to zero deep in the opposite tail."""
    from scipy.special import log_ndtr

    za = (np.log(x - 0.5) - mu) / sigma
    zb = (np.log(x + 0.5) - mu) / sigma
    cell = np.empty_like(za)
    left = zb <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ub, lb = log_ndtr(zb[left]), log_ndtr(za[left])
        cell[left] = ub + np.log1p(-np.exp(lb - ub))
        ua, va = log_ndtr(-za[~left]), log_ndtr(-zb[~left])
        cell[~left] = ua + np.log1p(-np.exp(va - ua))
    tail = log_ndtr((mu - np.log(xmin - 0.5)) / sigma)
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
    """Log-likelihood at each distinct tail value x (observed `weights`
    times) of the discretized-lognormal MLE on the tail.

    Returns None when the optimizer fails to converge, or when its best
    fit does not beat the power-law limit of the lognormal family: the
    MLE then runs off to that boundary (mu -> -inf, sigma -> inf) and
    no interior lognormal is there to compare with."""
    from scipy.optimize import minimize

    logs = np.log(x)
    n = weights.sum()
    mean = (weights * logs).sum() / n
    sd = np.sqrt((weights * (logs - mean) ** 2).sum() / n)

    def objective(params):
        mu, sigma = params[0], abs(params[1])
        if sigma < 1e-6:
            return 1e12
        ll = _lognormal_cell_logprobs(x, xmin, mu, sigma)
        if not np.all(np.isfinite(ll)):
            return 1e12
        return -(weights * ll).sum()

    result = minimize(objective, np.array([mean, max(sd, 0.1)]), method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 2000})
    if not result.success or not np.isfinite(result.fun) or result.fun >= 1e12:
        return None
    if -result.fun <= _power_law_limit_loglik(x, weights, xmin):
        return None
    mu, sigma = result.x[0], abs(result.x[1])
    return _lognormal_cell_logprobs(x, xmin, mu, sigma)


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
    (statistic 0, p 1) when the lognormal MLE has no interior optimum.
    """
    from scipy.special import ndtr

    x = np.asarray(counts)
    x = x[x >= fit.xmin].astype(float)
    if x.size != fit.n_tail:
        raise ValueError("counts do not match the fitted tail")
    values, weights = np.unique(x, return_counts=True)
    if alternative == "exponential":
        alt = _geometric_tail_loglik(values, weights, fit.xmin)
    elif alternative == "lognormal":
        alt = _lognormal_tail_loglik(values, weights, fit.xmin)
    else:
        raise ValueError(f"unknown alternative '{alternative}'")
    inconclusive = LikelihoodRatioResult(0.0, 1.0, "inconclusive")
    if alt is None or x.size < 2:
        return inconclusive
    diff = _powerlaw_pointwise_loglik(values, fit.alpha, fit.xmin) - alt
    if diff.min() == diff.max():  # no spread to normalize by
        return inconclusive
    total = (weights * diff).sum()
    sd = np.sqrt((weights * (diff - total / x.size) ** 2).sum() / x.size)
    statistic = total / (sd * np.sqrt(x.size))
    p_value = 2.0 * ndtr(-abs(statistic))
    if p_value > significance:
        favored = "inconclusive"
    else:
        favored = "power_law" if statistic > 0 else "alternative"
    return LikelihoodRatioResult(float(statistic), float(p_value), favored)


@functools.lru_cache(maxsize=8)
def _cdf_table(alpha: float, xmin: int):
    """Inverse-CDF table of the first _TABLE_SIZE support points; its
    guide: the table index of each bucket's lower edge k / _GUIDE, and
    whether the upper edge's index differs; and the normalizer
    zeta(alpha, xmin).  Read-only, shared by every draw."""
    from scipy.special import zeta

    support = np.arange(xmin, xmin + _TABLE_SIZE, dtype=float)
    normalizer = zeta(alpha, float(xmin))
    cdf = np.cumsum(support**-alpha) / normalizer
    edges = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE, side="left")
    first, spread = edges[:-1], edges[1:] != edges[:-1]
    for table in (cdf, first, spread):
        table.flags.writeable = False
    return cdf, first, spread, normalizer


def sample_power_law(alpha: float, xmin: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the discrete power law by inverse-CDF lookup.

    A cumulative table covers the first 100000 support points.  A guide
    table (Chen & Asau, 1974) splits [0, 1) into 1024 equal buckets and
    holds the table index of each bucket's edges; a draw whose bucket
    edges share an index takes it, and only the others are searched in
    the whole table.  Since the table is nondecreasing, this gives the
    index one search of the whole table would.  Draws falling
    beyond the table (rare for any alpha > 1 of interest) are resolved
    exactly by bisection on the zeta tail.  The table is built once per
    (alpha, xmin) and reused across calls.
    """
    if not 1 < alpha < np.inf:
        raise ValueError("alpha must exceed 1 and be finite")
    if xmin < 1:
        raise ValueError("xmin must be at least 1")
    cdf, first, spread, normalizer = _cdf_table(alpha, xmin)
    u = rng.random(size)
    bucket = (u * _GUIDE).astype(np.intp)  # exact: _GUIDE is a power of two
    draws = first[bucket]
    search = np.flatnonzero(spread[bucket])
    draws[search] = np.searchsorted(cdf, u[search], side="left")
    draws += xmin
    for i in np.flatnonzero(draws == xmin + _TABLE_SIZE):
        draw = _tail_quantile(u[i], alpha, normalizer, xmin + _TABLE_SIZE)
        if draw > np.iinfo(np.int64).max:
            raise ValueError(
                f"power-law draw exceeds the int64 range; alpha {alpha} is too close to 1"
            )
        draws[i] = draw
    return draws.astype(np.int64, copy=False)


def _tail_quantile(u, alpha, normalizer, lo):
    """Smallest x >= lo with survival zeta(alpha, x+1)/normalizer <= 1-u."""
    from scipy.special import zeta

    target = (1.0 - u) * normalizer
    hi = lo
    while zeta(alpha, float(hi + 1)) > target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if zeta(alpha, float(mid + 1)) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _gof_group(args) -> int:
    """How many replicates of one group of seeds have a KS distance
    beyond the observed one."""
    (seeds, alpha, xmin, p_tail, body, n, observed_ks) = args
    replicates = []
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.binomial(n, p_tail))
        parts = [sample_power_law(alpha, xmin, m, rng)]
        if n - m > 0:
            parts.append(rng.choice(body, size=n - m, replace=True))
        replicates.append(np.unique(np.concatenate(parts), return_counts=True))
    # a replicate that cannot be refit counts against the model
    return sum(isinstance(fit, PowerLawFit) and fit.ks_statistic > observed_ks
               for fit in _fit_group(replicates))


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
    observed one.  Replicate r uses seed `seed + r`, so partial runs
    are reproducible.  Replicates are refit in groups of 32 (the last
    group may be smaller), and `workers` processes share out whole
    groups; a replicate's refit does not depend on its group, so neither
    the grouping nor `workers` changes the p-value.
    """
    if n_boot < MIN_BOOTSTRAP:
        raise ValueError(f"n_boot must be at least {MIN_BOOTSTRAP}")
    x = np.asarray(counts)
    x = x[x > 0].astype(np.int64)
    body = x[x < fit.xmin]
    n = x.size
    p_tail = fit.n_tail / n
    tasks = [
        (range(seed + r, seed + min(r + _GROUP, n_boot)), fit.alpha, fit.xmin, p_tail, body, n,
         fit.ks_statistic)
        for r in range(0, n_boot, _GROUP)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            exceed = sum(pool.map(_gof_group, tasks))
    else:
        exceed = sum(map(_gof_group, tasks))
    return exceed / n_boot
