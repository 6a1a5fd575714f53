"""Hoeffding's D test of independence between two paired samples.

D is the classical rank statistic built from the marginal midranks and
the bivariate ranks; it is zero in expectation under independence and
picks up monotone and non-monotone dependence alike.  Because the
per-city sample sizes here are small, significance comes from a
permutation null rather than the asymptotic table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_PAIRS = 5
MIN_PERMUTATIONS = 999
_CHUNK_BYTES = 4_000_000  # int8 permuted order scores built per permutation chunk


@dataclass
class PairedSample:
    """Paired observations (one pair per unit, e.g. per city)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be vectors of equal length")
        if self.x.size < MIN_PAIRS:
            raise ValueError(f"need at least {MIN_PAIRS} pairs")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("x and y must be finite")

    def __len__(self) -> int:
        return self.x.size


def _relations(v: np.ndarray) -> np.ndarray:
    """Pairwise order scores as int8 along the last axis of `v`, a vector
    or a stack of them: entry [..., i, j] is 2 when v[..., j] < v[..., i],
    1 when they tie (the diagonal included) and 0 when v[..., j] > v[..., i]."""
    scores = np.less_equal(v[..., None, :], v[..., :, None]).view(np.int8)
    scores += v[..., None, :] < v[..., :, None]
    return scores


def _permuted_relations(b: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The order scores `b` of a sample re-paired by each permutation in
    `perms` (m, n): entry [k, i, j] is b[perms[k, i], perms[k, j]].

    No gather: b's row sums, 2 * (values below) + (ties), order and tie
    the points as the values do, so the scores are `_relations` of the
    permuted row sums, compared in the narrowest integer type that holds
    them."""
    n = b.shape[-1]
    return _relations(b.sum(-1).astype(np.min_scalar_type(2 * n))[perms])


def _midranks(a) -> np.ndarray:
    """Marginal midranks from the order scores: values below, plus half
    of the ties (self included) plus one half."""
    return (a.sum(-1) + 1) / 2


def _bivariate_ranks(a, b) -> np.ndarray:
    """Q_i: points strictly southwest of point i, with ties on a single
    coordinate worth 1/2 and double ties 1/4 (self excluded), as in
    Hoeffding, "A non-parametric test of independence", Ann. Math.
    Statist. 19 (1948).

    With the order scores a of x and b of y, the product a_ij * b_ij is
    4 for a strict southwest point, 2 for a tie on one coordinate and 1
    for a double tie, so Q_i = (sum_j a_ij * b_ij - 1) / 4, the -1
    removing the self pair.  The sum is an integer, so Q is exact.
    Works on (n, n) scores or permutation-stacked (m, n, n) ones."""
    return ((a * b).sum(-1) - 1) / 4


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
    a, b = _relations(sample.x), _relations(sample.y)
    return float(_d_from_ranks(_bivariate_ranks(a, b), _midranks(a), _midranks(b), len(sample)))


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

    A permutation pi re-pairs point i with y[pi(i)], so its bivariate
    ranks are Q_i = (sum_j a_ij * b[pi(i), pi(j)] - 1) / 4: y's int8
    order scores, rebuilt for each permutation by comparing y's permuted
    integer ranks (`_permuted_relations`), and one product-sum with x's
    (see `_bivariate_ranks`).  Every term is a multiple of 1/4, so Q is
    exact and D and p equal those of separate strict and tie counts bit
    for bit.  Permutations run in chunks whose permuted scores stay
    within _CHUNK_BYTES, whatever n.
    """
    if n_perm < MIN_PERMUTATIONS:
        raise ValueError(f"n_perm must be at least {MIN_PERMUTATIONS}")
    n = len(sample)
    a, b = _relations(sample.x), _relations(sample.y)
    r, s = _midranks(a), _midranks(b)
    d_obs = _d_from_ranks(_bivariate_ranks(a, b), r, s, n)

    rng = np.random.Generator(np.random.PCG64(seed))
    exceed = 0
    chunk = max(1, _CHUNK_BYTES // b.nbytes)
    remaining = n_perm
    while remaining > 0:
        m = min(chunk, remaining)
        # Random permutations as argsorts of uniform draws.
        perms = np.argsort(rng.random((m, n)), axis=1)
        q = _bivariate_ranks(a, _permuted_relations(b, perms))
        d_perm = _d_from_ranks(q, r, s[perms], n)
        exceed += int((d_perm >= d_obs).sum())
        remaining -= m
    return (1 + exceed) / (1 + n_perm)
