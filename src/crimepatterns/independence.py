"""Hoeffding's D test of independence between two paired samples.

D is the classical rank statistic built from the marginal midranks and
the bivariate ranks; it is zero in expectation under independence and
picks up monotone and non-monotone dependence alike.  Because the
per-city sample sizes here are small, significance comes from a
permutation null rather than the asymptotic table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_PAIRS = 5
MIN_PERMUTATIONS = 999


@dataclass
class PairedSample:
    """Paired observations (one pair per unit, e.g. per city)."""

    x: np.ndarray
    y: np.ndarray
    labels: list = field(default_factory=list)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be vectors of equal length")
        if self.x.size < MIN_PAIRS:
            raise ValueError(f"need at least {MIN_PAIRS} pairs")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("x and y must be finite")
        if self.labels and len(self.labels) != self.x.size:
            raise ValueError("labels length does not match the sample")

    def __len__(self) -> int:
        return self.x.size


def _relations(v: np.ndarray):
    """Pairwise strict-less and equal matrices; entry [i, j] compares
    v[j] against v[i]."""
    return v[None, :] < v[:, None], v[None, :] == v[:, None]


def _midranks(lt, eq) -> np.ndarray:
    """Marginal midranks from the relation matrices: values below, plus
    half of the ties (self included) plus one half."""
    return lt.sum(-1) + 0.5 * (eq.sum(-1) + 1)


def _bivariate_ranks(xlt, xeq, ylt, yeq) -> np.ndarray:
    """Q_i: points strictly southwest of point i, with ties on a single
    coordinate worth 1/2 and double ties 1/4 (self excluded).  Works on
    (n, n) matrices or permutation-stacked (m, n, n) matrices."""
    q = (
        (xlt & ylt).sum(-1)
        + 0.5 * ((xeq & ylt).sum(-1) + (xlt & yeq).sum(-1))
        + 0.25 * (xeq & yeq).sum(-1)
        - 0.25  # remove the self pair, which always double-ties
    )
    return q


def _d_from_ranks(q, r, s, n: int):
    d1 = (q * (q - 1.0)).sum(-1)
    d2 = ((r - 1.0) * (r - 2.0) * (s - 1.0) * (s - 2.0)).sum(-1)
    d3 = ((r - 2.0) * (s - 2.0) * q).sum(-1)
    numerator = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3)
    denominator = float(n) * (n - 1) * (n - 2) * (n - 3) * (n - 4)
    return numerator / denominator


def hoeffding_d(sample: PairedSample) -> float:
    """Hoeffding's D with midrank tie handling.

    Ranges over [-0.5, 1]; equals 1 exactly when one variable is a
    strictly monotone function of the other and the sample has no ties.
    """
    n = len(sample)
    xlt, xeq = _relations(sample.x)
    ylt, yeq = _relations(sample.y)
    q = _bivariate_ranks(xlt, xeq, ylt, yeq)
    return float(_d_from_ranks(q, _midranks(xlt, xeq), _midranks(ylt, yeq), n))


def hoeffding_test(
    sample: PairedSample,
    n_perm: int = MIN_PERMUTATIONS,
    seed: int = 0,
) -> float:
    """Permutation p-value for the null that x and y are independent.

    The y side is re-paired uniformly at random n_perm times and the
    p-value is (1 + #{D_perm >= D_obs}) / (1 + n_perm), so it can never
    be zero.  Degenerate samples (say, constant y) make every permuted
    D equal to the observed one and the p-value is 1.
    """
    if n_perm < MIN_PERMUTATIONS:
        raise ValueError(f"n_perm must be at least {MIN_PERMUTATIONS}")
    n = len(sample)
    xlt, xeq = _relations(sample.x)
    ylt, yeq = _relations(sample.y)
    r = _midranks(xlt, xeq)
    s = _midranks(ylt, yeq)
    d_obs = _d_from_ranks(_bivariate_ranks(xlt, xeq, ylt, yeq), r, s, n)

    rng = np.random.Generator(np.random.PCG64(seed))
    exceed = 0
    chunk = max(1, 4_000_000 // (n * n))
    remaining = n_perm
    while remaining > 0:
        m = min(chunk, remaining)
        # Random permutations as argsorts of uniform draws.
        perms = np.argsort(rng.random((m, n)), axis=1)
        ylt_p = ylt[perms[:, :, None], perms[:, None, :]]
        yeq_p = yeq[perms[:, :, None], perms[:, None, :]]
        q = _bivariate_ranks(xlt[None], xeq[None], ylt_p, yeq_p)
        d_perm = _d_from_ranks(q, r[None, :], s[perms], n)
        exceed += int((d_perm >= d_obs).sum())
        remaining -= m
    return (1 + exceed) / (1 + n_perm)
