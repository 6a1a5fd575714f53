"""Hoeffding's D and its permutation test."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import rankdata

from crimepatterns import PairedSample, hoeffding_d, hoeffding_test
from crimepatterns.independence import (
    _CHUNK_BYTES,
    _bivariate_ranks,
    _d_from_ranks,
    _midranks,
    _permuted_relations,
    _relations,
)


def hoeffding_brute(x, y):
    """Hoeffding's D from its combinatorial definition (tie-free data).

    Averages the kernel

        (1/4) * [1(x1<x5) - 1(x2<x5)] * [1(x3<x5) - 1(x4<x5)]
              * [1(y1<y5) - 1(y2<y5)] * [1(y3<y4) ... same in y]

    over every ordered 5-tuple of distinct indices and scales by 30, so
    a strictly monotone relation scores exactly 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    xlt = (x[:, None] < x[None, :]).astype(float)
    ylt = (y[:, None] < y[None, :]).astype(float)
    idx = np.arange(n)
    m = n - 1
    i = np.arange(m)
    distinct = (
        (i[:, None, None, None] != i[None, :, None, None])
        & (i[:, None, None, None] != i[None, None, :, None])
        & (i[:, None, None, None] != i[None, None, None, :])
        & (i[None, :, None, None] != i[None, None, :, None])
        & (i[None, :, None, None] != i[None, None, None, :])
        & (i[None, None, :, None] != i[None, None, None, :])
    )
    total = 0.0
    for i5 in range(n):
        others = idx[idx != i5]
        a = xlt[others, i5]
        b = ylt[others, i5]
        f = (a[:, None] - a[None, :]) * (b[:, None] - b[None, :])
        np.fill_diagonal(f, 0.0)
        total += (f[:, :, None, None] * f[None, None, :, :] * distinct).sum() / 4.0
    return 30.0 * total / (n * (n - 1) * (n - 2) * (n - 3) * (n - 4))


def four_and_ranks(xlt, xeq, ylt, yeq):
    """Reference Q_i from separate strict and tie relations: southwest
    points count 1, single-coordinate ties 1/2, double ties 1/4, minus
    the self pair.  Works on (n, n) or (m, n, n) relations."""
    return (
        (xlt & ylt).sum(-1)
        + 0.5 * ((xeq & ylt).sum(-1) + (xlt & yeq).sum(-1))
        + 0.25 * (xeq & yeq).sum(-1)
        - 0.25
    )


def lt_eq(v):
    return v[None, :] < v[:, None], v[None, :] == v[:, None]


def four_and_permuted_d(x, y, perms):
    """Permuted D for a stack of permutations through the reference Q."""
    n = x.size
    (xlt, xeq), (ylt, yeq) = lt_eq(x), lt_eq(y)
    index = perms[:, :, None], perms[:, None, :]
    q = four_and_ranks(xlt, xeq, ylt[index], yeq[index])
    r = rankdata(x)
    s = rankdata(y)
    return q, _d_from_ranks(q, r, s[perms], n)


def four_and_test(x, y, n_perm, seed):
    """Reference permutation p-value: the same permutation stream as
    hoeffding_test, drawn in one stack."""
    n = x.size
    (xlt, xeq), (ylt, yeq) = lt_eq(x), lt_eq(y)
    d_obs = _d_from_ranks(four_and_ranks(xlt, xeq, ylt, yeq), rankdata(x), rankdata(y), n)
    rng = np.random.Generator(np.random.PCG64(seed))
    perms = np.argsort(rng.random((n_perm, n)), axis=1)
    _, d_perm = four_and_permuted_d(x, y, perms)
    return (1 + int((d_perm >= d_obs).sum())) / (1 + n_perm)


SAMPLES = {
    "continuous": lambda g: (g.normal(size=100), g.normal(size=100)),
    "tie_heavy": lambda g: (g.integers(0, 4, 100).astype(float),
                            g.integers(0, 3, 100).astype(float)),
    "constant_y": lambda g: (g.normal(size=100), np.full(100, 2.0)),
}


class TestProductKernel:
    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_ranks_and_permuted_d_match_four_and_reference(self, kind):
        g = np.random.default_rng(21)
        x, y = SAMPLES[kind](g)
        a, b = _relations(x), _relations(y)
        assert a.dtype == np.int8
        assert np.array_equal(_bivariate_ranks(a, b), four_and_ranks(*lt_eq(x), *lt_eq(y)))
        perms = np.argsort(g.random((50, x.size)), axis=1)
        q_ref, d_ref = four_and_permuted_d(x, y, perms)
        permuted = _permuted_relations(b, perms)
        assert permuted.dtype == np.int8
        assert np.array_equal(permuted, b[perms[:, :, None], perms[:, None, :]])
        q = _bivariate_ranks(a, permuted)
        assert np.array_equal(q, q_ref)
        assert np.array_equal(_d_from_ranks(q, _midranks(a), _midranks(b)[perms], x.size), d_ref)

    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_p_value_matches_four_and_reference(self, kind):
        x, y = SAMPLES[kind](np.random.default_rng(22))
        n_perm = 1001
        assert n_perm % (_CHUNK_BYTES // x.size**2) != 0 and n_perm > _CHUNK_BYTES // x.size**2
        p = hoeffding_test(PairedSample(x, y), n_perm=n_perm, seed=23)
        assert p == four_and_test(x, y, n_perm, 23)

    def test_permutation_memory_stays_within_int8_chunk(self):
        """The gathered scores and their product take one byte per entry
        and the chunk is bounded in bytes (9 MB peak); int16 scores in a
        chunk of as many permutations peak at 17 MB."""
        x = np.random.default_rng(24).normal(size=100)
        sample = PairedSample(x, x + 0.05 * np.random.default_rng(25).normal(size=100))
        tracemalloc.start()
        try:
            hoeffding_test(sample, n_perm=4999, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000


class TestHoeffdingD:
    def test_monotone_identity_scores_one(self):
        x = np.arange(1.0, 21.0)
        s = PairedSample(x, x.copy())
        assert hoeffding_d(s) == pytest.approx(1.0, abs=1e-12)
        assert hoeffding_brute(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert hoeffding_d(PairedSample(x, y)) == pytest.approx(
                hoeffding_brute(x, y), abs=1e-12
            )

    def test_independent_uniforms_have_tiny_d(self):
        small = 0
        for r in range(100):
            g = np.random.default_rng(700 + r)
            s = PairedSample(g.uniform(size=1000), g.uniform(size=1000))
            small += abs(hoeffding_d(s)) < 0.01
        assert small >= 95

    def test_midranks_match_rankdata_on_tied_data(self):
        rng = np.random.default_rng(11)
        for n in (5, 12, 40):
            v = rng.integers(0, 4, size=n).astype(float)
            assert np.array_equal(_midranks(_relations(v)), rankdata(v))

    def test_sample_too_small_is_an_error(self):
        with pytest.raises(ValueError):
            PairedSample(np.arange(4.0), np.arange(4.0))

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            PairedSample(np.arange(6.0), np.arange(5.0))

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=25)
        y = x + rng.normal(size=25)
        d = hoeffding_d(PairedSample(x, y))
        d2 = hoeffding_d(PairedSample(np.exp(x), y**3))
        assert d2 == pytest.approx(d, abs=1e-12)


class TestHoeffdingTest:
    def test_strong_monotone_dependence_is_detected(self):
        x = np.random.default_rng(45).normal(size=30)
        p = hoeffding_test(PairedSample(x, x**3), n_perm=999, seed=46)
        assert p <= 0.001

    def test_noisy_linear_dependence_is_detected(self):
        x = np.random.default_rng(42).normal(size=20)
        y = x + 0.05 * np.random.default_rng(43).normal(size=20)
        p = hoeffding_test(PairedSample(x, y), n_perm=999, seed=44)
        assert p <= 0.001

    def test_calibration_under_independence(self):
        rejections = 0
        for r in range(50):
            x = np.random.default_rng(8000 + r).normal(size=20)
            y = np.random.default_rng(8500 + r).normal(size=20)
            p = hoeffding_test(PairedSample(x, y), n_perm=999, seed=9000 + r)
            rejections += p <= 0.05
        assert 1 <= rejections <= 6  # 1%..12% of 50 runs

    def test_constant_y_gives_p_one(self):
        x = np.random.default_rng(1).normal(size=15)
        p = hoeffding_test(PairedSample(x, np.full(15, 3.0)), n_perm=999, seed=2)
        assert p == 1.0

    def test_p_value_invariant_under_relabeling(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=18)
        y = rng.normal(size=18)
        p1 = hoeffding_test(PairedSample(x, y), n_perm=999, seed=5)
        relabel = rng.permutation(18)
        p2 = hoeffding_test(PairedSample(x[relabel], y[relabel]), n_perm=999, seed=5)
        assert p1 == pytest.approx(p2, abs=0.02)

    def test_too_few_permutations_is_an_error(self):
        s = PairedSample(np.arange(10.0), np.arange(10.0))
        with pytest.raises(ValueError):
            hoeffding_test(s, n_perm=99)
