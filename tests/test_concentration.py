"""Lorenz/Gini, discrete power-law fitting and model comparison."""

import concurrent.futures
import dataclasses
import itertools
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr, zeta
from scipy.stats import chisquare

from crimepatterns import (
    concentration,
    fit_power_law,
    gen_powerlaw_counts,
    gof_bootstrap,
    likelihood_ratio,
    lorenz,
    sample_power_law,
)


def gini_pairwise(x):
    """Brute-force oracle: normalized mean absolute pairwise difference."""
    x = np.asarray(x, dtype=float)
    n = x.size
    return np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean())


def geometric_tail_ks(x, xmin):
    """KS distance of the tail x >= xmin against the fitted geometric law."""
    tail = np.sort(x[x >= xmin])
    vals, cnt = np.unique(tail, return_counts=True)
    ecdf = np.cumsum(cnt) / tail.size
    m = tail.mean() - xmin
    q = m / (1.0 + m)
    fitted = 1.0 - q ** (vals - xmin + 1.0)
    return np.abs(ecdf - fitted).max()


def tail_ks(values, tail_counts, alpha, xmin):
    """Per-candidate reference: KS distance of one tail against its
    fitted zeta CDF, over every integer from xmin to the largest value."""
    support = np.arange(xmin, values[-1] + 1)
    below = np.searchsorted(values, support, side="right")  # distinct values <= each
    ecdf = np.concatenate([[0], np.cumsum(tail_counts)])[below] / tail_counts.sum()
    fitted = 1.0 - zeta(alpha, support + 1.0) / zeta(alpha, float(xmin))
    return float(np.abs(ecdf - fitted).max())


def golden_min(objective, shape, tol=1e-6):
    """Oracle: golden-section minimum of a unimodal objective of an
    exponent in (1, 30], elementwise over arrays of the given shape (the
    package's search before the Newton search replaced it)."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(shape, 1.0 + 1e-6)
    hi = np.full(shape, 30.0)
    while (hi - lo).max() > tol:
        x1 = hi - golden * (hi - lo)
        x2 = lo + golden * (hi - lo)
        keep_low = objective(x1) <= objective(x2)
        hi = np.where(keep_low, x2, hi)
        lo = np.where(keep_low, lo, x1)
    return 0.5 * (lo + hi)


def exponent_search(log_means, qs):
    """The package's exponent search over tails with these mean logs and
    cutoffs."""
    log_means, qs = np.broadcast_arrays(np.asarray(log_means, float), np.asarray(qs, float))
    flat_means, flat_qs = log_means.ravel(), qs.ravel()
    return concentration._newton_min(
        lambda a, rows: concentration._zeta_log_likelihood(a, flat_means[rows], flat_qs[rows]),
        log_means,
        qs,
    )


def reference_fit(x, xmin=None):
    """(alpha, xmin, ks, n_tail) from a loop over candidate cutoffs, one
    `tail_ks` call each, with the package's exponent search."""
    values, mult = np.unique(x[x > 0], return_counts=True)
    values = values.astype(float)
    tail_n = np.cumsum(mult[::-1])[::-1]
    tail_logsum = np.cumsum((mult * np.log(values))[::-1])[::-1]
    if xmin is None:
        starts = [c for c in range(values.size - 1) if tail_n[c] >= 10]
        qs = [values[c] for c in starts]
    else:
        starts, qs = [int(np.searchsorted(values, xmin))], [float(xmin)]
        if starts[0] == values.size:
            raise ValueError(f"no value reaches xmin={xmin}")
    best = None
    for c, q in zip(starts, qs):
        alpha = exponent_search(tail_logsum[c] / tail_n[c], q)
        ks = tail_ks(values[c:], mult[c:], alpha, q)
        if best is None or ks < best[2]:
            best = (float(alpha), int(q), ks, int(tail_n[c]))
    return best


def bootstrap_replicates(x, fit, n_boot, seed):
    """The (distinct values, multiplicity) of each replicate that
    gof_bootstrap(x, fit, n_boot, seed) draws."""
    body_values, body_counts = np.unique(x[x < fit.xmin], return_counts=True)
    return [
        concentration._draw_group([np.random.Generator(np.random.PCG64(stream))], x.size,
                                  fit.n_tail / x.size, fit.alpha, fit.xmin, body_values,
                                  body_counts / max(body_counts.sum(), 1))[0]
        for stream in np.random.SeedSequence(seed).spawn(n_boot)
    ]


def mixed_group(x, size, seed):
    """x and size - 1 more samples, in which ones that fit sit beside ones
    that cannot be fit: a single distinct value, too few observations, a
    tail too short above a pinned cutoff, and a tail whose fitted law
    cannot be evaluated."""
    rng = np.random.default_rng(seed)
    makers = [
        lambda: rng.choice([6, 60, 3000]) ** rng.random(rng.integers(50, 400)),
        lambda: np.full(rng.integers(50, 100), rng.integers(1, 3000)),
        lambda: rng.integers(1, 3000, size=rng.integers(1, 50)),
        lambda: np.concatenate([np.ones(rng.integers(50, 100)), rng.integers(2, 9, size=9)]),
        lambda: np.array([10**13] * 40 + [10**13 + 1] * 20),
    ]
    group = [x] + [makers[rng.integers(len(makers))]() for _ in range(size - 1)]
    return [np.ceil(g).astype(np.int64) for g in group]


# Positive-integer multisets with a long right tail and many ties.
count_multisets = st.lists(
    st.one_of(st.integers(1, 6), st.integers(1, 60), st.integers(1, 3000)),
    min_size=50,
    max_size=400,
).map(np.array)


class TestLorenz:
    def test_equal_counts_give_diagonal_and_zero_gini(self):
        curve = lorenz([5, 5, 5, 5])
        assert curve.gini == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(curve.points[:, 0], curve.points[:, 1])

    def test_single_loaded_region_gives_max_gini(self):
        curve = lorenz([10, 0, 0, 0])
        assert curve.gini == pytest.approx(0.75)  # (n-1)/n for n=4
        assert curve.points[1, 1] == pytest.approx(1.0)  # top region owns it all

    def test_gini_matches_pairwise_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            x = rng.integers(0, 200, size=1000)
            assert lorenz(x).gini == pytest.approx(gini_pairwise(x), abs=1e-12)

    def test_all_zero_counts_is_an_error(self):
        with pytest.raises(ValueError):
            lorenz([0, 0, 0])

    @pytest.mark.parametrize("x, match", [
        ([], "non-empty vector"), ([[1, 2], [3, 4]], "non-empty vector"),
        ([3, -1, 2], "non-negative"),
    ])
    def test_counts_that_are_no_count_vector_are_an_error(self, x, match):
        with pytest.raises(ValueError, match=match):
            lorenz(x)

    def test_curve_shape_invariants(self):
        x = np.random.default_rng(5).integers(0, 50, size=40)
        pts = lorenz(x).points
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[-1]) == pytest.approx((1.0, 1.0))
        assert np.all(np.diff(pts[:, 0]) >= 0) and np.all(np.diff(pts[:, 1]) >= 0)
        # descending ordering puts the curve on or above the diagonal,
        # with concavity (increments never grow)
        assert np.all(pts[:, 1] >= pts[:, 0] - 1e-12)
        inc = np.diff(pts[:, 1])
        assert np.all(np.diff(inc) <= 1e-12)

    def test_gini_invariant_under_rescaling(self):
        x = np.random.default_rng(6).integers(0, 100, size=200)
        assert lorenz(x).gini == pytest.approx(lorenz(7 * x).gini, abs=1e-12)

    def test_transfer_toward_the_top_raises_gini(self):
        x = np.array([40, 30, 20, 10])
        y = np.array([45, 30, 20, 5])  # mean-preserving transfer upward
        assert lorenz(y).gini > lorenz(x).gini

    @pytest.mark.parametrize("x", [[np.nan, 1, 2], [np.inf, 1], [3, -np.inf]])
    def test_non_finite_counts_are_an_error(self, x):
        with pytest.raises(ValueError, match="counts must be finite"):
            lorenz(x)

    def test_non_integer_counts_are_legal(self):
        x = [0.5, 2.25, 0.0, 7.0]
        assert lorenz(x).gini == pytest.approx(gini_pairwise(x), abs=1e-12)


class TestFitPowerLaw:
    def test_recovers_alpha_on_large_sample(self):
        x = gen_powerlaw_counts(2.5, 1, 50_000, 1025)
        fit = fit_power_law(x)
        assert 2.45 <= fit.alpha <= 2.55
        assert fit.xmin == 1
        assert fit.n_tail == 50_000
        assert 0.0 <= fit.ks_statistic <= 1.0

    def test_geometric_data_fits_exponential_better_than_power_law(self):
        # Same tail (everything from 1 up) for both models: the fitted
        # geometric hugs the data while the best power law stays far off.
        x = np.random.default_rng(100).geometric(0.25, size=5000)
        fit = fit_power_law(x, xmin=1)
        assert fit.ks_statistic > geometric_tail_ks(x, 1)

    def test_too_few_observations_is_an_error(self):
        with pytest.raises(ValueError):
            fit_power_law(np.arange(1, 30))

    def test_degenerate_tail_is_an_error(self):
        with pytest.raises(ValueError):
            fit_power_law(np.full(60, 7))  # a single distinct value

    def test_pinned_xmin_is_respected(self):
        x = gen_powerlaw_counts(2.5, 1, 5000, 77)
        fit = fit_power_law(x, xmin=3)
        assert fit.xmin == 3
        assert fit.n_tail == int((x >= 3).sum())

    def test_pinned_xmin_above_all_but_a_few_counts_is_an_error(self):
        x = gen_powerlaw_counts(2.5, 1, 5000, 77)
        with pytest.raises(ValueError, match=r"tail above xmin=\d+ holds fewer than 10"):
            fit_power_law(x, xmin=int(np.sort(x)[-5]))

    @pytest.mark.parametrize("xmin", [1.5, 2.5, 3 + 1e-9])
    def test_a_cutoff_that_is_not_an_integer_is_an_error(self, xmin):
        # A cutoff of 2.5 used to fit the tail from 3 with the normalizer
        # zeta(alpha, 2.5) and report xmin 2.
        x = gen_powerlaw_counts(2.5, 1, 5000, 0)
        with pytest.raises(ValueError, match="xmin must be a positive integer"):
            fit_power_law(x, xmin=xmin)
        pinned = fit_power_law(x, xmin=3)
        assert fit_power_law(x, xmin=3.0) == fit_power_law(x, xmin=np.int64(3)) == pinned

    def test_refit_on_own_model_within_three_standard_errors(self):
        x = gen_powerlaw_counts(2.5, 1, 20_000, 50)
        fit = fit_power_law(x, xmin=1)
        redraw = sample_power_law(
            fit.alpha, fit.xmin, fit.n_tail, np.random.default_rng(51)
        )
        refit = fit_power_law(redraw, xmin=fit.xmin)
        se = (fit.alpha - 1.0) / np.sqrt(fit.n_tail)
        assert abs(refit.alpha - fit.alpha) <= 3.0 * se

    @settings(max_examples=60, deadline=None)
    @given(count_multisets, st.sampled_from([None, 1, 2, 5]))
    def test_batched_ks_scan_matches_the_per_candidate_loop(self, x, xmin):
        try:
            expected = reference_fit(x, xmin)
        except ValueError:  # pinned cutoff beyond the data
            assume(False)
        assume(expected is not None)
        # Tiny blocks cover the scan's split into row blocks.  The fit scans
        # every candidate in full, so the probe width does not reach it.
        for block, probe in ((concentration._CHUNK, concentration._KS_PROBE),
                             (7, 1), (7, 10**6)):
            with mock.patch.multiple(concentration, _CHUNK=block, _KS_PROBE=probe):
                try:
                    fit = fit_power_law(x, xmin=xmin)
                except ValueError:
                    assume(False)
            # Between observed values the scan steps the model CDF down by one
            # term where the oracle calls zeta, so the distances agree to rounding.
            assert (fit.alpha, fit.xmin, fit.n_tail) == expected[:2] + expected[3:]
            assert fit.ks_statistic == pytest.approx(expected[2], rel=1e-12, abs=1e-15)

    def test_each_zeta_call_of_the_ks_scan_is_one_pass_plus_a_row(self):
        # A heavy tail has long rows, and the scan's blocks used to reach
        # 455,527 pairs in one zeta call here.  A block never splits a row.
        x = gen_powerlaw_counts(1.3, 1, 5000, 0)
        sizes, zeta_ = [], concentration._zeta

        def spy(a, q):
            if sys._getframe(1).f_code.co_name == "_ks_rows":
                sizes.append(np.broadcast(a, q).size)
            return zeta_(a, q)

        with mock.patch.object(concentration, "_zeta", spy):
            fit = fit_power_law(x)
        assert fit == fit_power_law(x)
        assert sum(sizes) > 10 * concentration._CHUNK  # the scan takes many passes
        assert max(sizes) <= concentration._CHUNK + np.unique(x).size

    def test_ks_takes_the_integers_between_observed_values(self):
        # The largest gap lies at 3, which no observation takes: the model
        # CDF keeps rising between 1 and 4 while the empirical CDF is flat.
        x = np.repeat([1, 4, 5, 9, 20, 50], [40, 30, 10, 5, 5, 3])
        fit = fit_power_law(x, xmin=1)
        values, counts = np.unique(x, return_counts=True)
        assert fit.ks_statistic == pytest.approx(
            tail_ks(values.astype(float), counts, fit.alpha, 1), rel=1e-12)
        assert fit.ks_statistic == pytest.approx(0.26531, abs=1e-5)

    def test_ks_takes_the_integers_from_a_pinned_cutoff_to_the_first_value(self):
        # Pinned at 2, the tail starts at 3: the model puts mass on 2 while
        # the empirical CDF is still 0 there.
        x = np.repeat([1, 3], [40, 10])
        fit = fit_power_law(x, xmin=2)
        assert fit.ks_statistic == pytest.approx(
            tail_ks(np.array([3.0]), np.array([10]), fit.alpha, 2), rel=1e-12)
        assert fit.ks_statistic == pytest.approx(
            1.0 - zeta(fit.alpha, 3.0) / zeta(fit.alpha, 2.0), rel=1e-12)

    @pytest.mark.parametrize("big", [10**12, 10**14, 10**16])
    def test_cutoffs_whose_normalizer_underflows_never_win(self, big):
        # zeta(alpha, q) underflows to 0 for such q at large exponents; the
        # cutoff's KS distance cannot be evaluated and used to crash the scan.
        x = np.array([big] * 20 + [big + 1] * 5 + list(range(1, 60)))
        fit = fit_power_law(x)
        assert fit.xmin < 60 and np.isfinite(fit.ks_statistic)

    def test_no_evaluable_cutoff_is_an_error(self):
        x = np.array([10**13] * 40 + [10**13 + 1] * 20)
        with pytest.raises(ValueError, match="can be evaluated"):
            fit_power_law(x)

    def test_gini_decreases_as_alpha_grows(self):
        ginis = [
            lorenz(gen_powerlaw_counts(a, 1, 10_000, 60)).gini
            for a in (2.1, 2.5, 3.0, 4.0)
        ]
        assert all(a > b for a, b in zip(ginis, ginis[1:]))


class TestCountsCheck:
    """fit_power_law, likelihood_ratio and gof_bootstrap take counts that
    are finite, non-negative integers, integral floats included."""

    @pytest.fixture(scope="class")
    def data(self):
        x = gen_powerlaw_counts(2.5, 1, 2000, 5)
        return x, fit_power_law(x)

    @staticmethod
    def call(entry, counts, fit):
        if entry == "fit_power_law":
            return fit_power_law(counts)
        if entry == "likelihood_ratio":
            return likelihood_ratio(counts, fit, "lognormal")
        return gof_bootstrap(counts, fit, n_boot=100, seed=3)

    @pytest.mark.parametrize("entry", ["fit_power_law", "likelihood_ratio", "gof_bootstrap"])
    @pytest.mark.parametrize("bad, match", [
        (0.5, "integers"), (np.nan, "finite"), (np.inf, "finite"), (2.0**63, "int64 range"),
        (-1.0, "non-negative"),
    ])
    def test_each_entry_rejects_a_count_that_is_not_a_finite_integer(self, data, entry, bad, match):
        x, fit = data
        counts = x.astype(float)
        counts[7] = counts[7] + bad if bad == 0.5 else bad
        with pytest.raises(ValueError, match=match):
            self.call(entry, counts, fit)

    @pytest.mark.parametrize("entry", ["fit_power_law", "likelihood_ratio", "gof_bootstrap"])
    def test_each_entry_rejects_counts_that_are_no_vector(self, data, entry):
        x, fit = data
        with pytest.raises(ValueError, match="counts must be a vector"):
            self.call(entry, x.reshape(2, -1), fit)

    @pytest.mark.parametrize("entry", ["fit_power_law", "likelihood_ratio", "gof_bootstrap"])
    def test_integral_floats_give_the_same_result(self, data, entry):
        x, fit = data
        assert self.call(entry, x.astype(float), fit) == self.call(entry, x, fit)


class TestExponentSearch:
    """The Newton search against the golden-section oracle it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(count_multisets, st.sampled_from([None, 1, 2, 5]))
    def test_fitted_exponent_matches_the_golden_section_oracle(self, x, xmin):
        try:
            fit = fit_power_law(x, xmin=xmin)
        except ValueError:
            assume(False)
        log_mean, q = np.log(x[x >= fit.xmin]).mean(), float(fit.xmin)

        def objective(a):
            return concentration._zeta_log_likelihood(a, log_mean, q)

        oracle = float(golden_min(objective, ()))
        # Golden section compares objective values, so it cannot place the
        # minimum closer than where the objective rises by a few roundings
        # of its two terms; on flat objectives (large cutoffs, exponents
        # near 30) that distance exceeds 1e-6.
        h = 1e-3 * min(1.0, oracle - 1.0)
        curvature = (objective(oracle + h) - 2 * objective(oracle) + objective(oracle - h)) / h**2
        terms = abs(oracle * log_mean) + abs(objective(oracle) - oracle * log_mean)
        resolution = np.sqrt(8 * np.finfo(float).eps * terms / curvature)
        assert abs(fit.alpha - oracle) <= max(1e-6, resolution)

    @settings(max_examples=60, deadline=None)
    @given(count_multisets)
    def test_each_batched_element_equals_its_scalar_search(self, x):
        values, mult = np.unique(x, return_counts=True)
        values = values.astype(float)
        tail_n = np.cumsum(mult[::-1])[::-1]
        log_means = np.cumsum((mult * np.log(values))[::-1])[::-1] / tail_n
        batched = exponent_search(log_means, values)
        scalar = [exponent_search(m, q) for m, q in zip(log_means, values)]
        assert batched.shape == values.shape
        assert np.array_equal(batched, scalar)

    def test_tail_almost_entirely_at_xmin_stops_at_thirty(self):
        x = np.array([1000] * 99 + [1001])
        fit = fit_power_law(x, xmin=1000)
        oracle = golden_min(
            lambda a: concentration._zeta_log_likelihood(a, np.log(x).mean(), 1000.0), ()
        )
        assert fit.alpha == 30.0
        assert abs(fit.alpha - oracle) <= 1e-6

    @pytest.mark.parametrize("log_mean", [1e5, 5e5, 1e6, 1e7])
    def test_minimum_near_or_at_the_lower_end(self, log_mean):
        # log zeta(a, 1) is about -log(a - 1), so the minimum sits near
        # 1 + 1/log_mean: inside the bracket for the first two, at its
        # lower end 1 + 1e-6 for the last two.
        oracle = golden_min(lambda a: concentration._zeta_log_likelihood(a, log_mean, 1.0), ())
        alpha = exponent_search(log_mean, 1.0)
        assert 1.0 + 1e-6 <= alpha <= 1.0 + 2e-5
        assert abs(alpha - oracle) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(count_multisets, st.integers(1, 4))
    def test_power_law_limit_of_the_lognormal_matches_the_oracle(self, x, xmin):
        values, weights = np.unique(x[x >= xmin].astype(float), return_counts=True)
        assume(values.size >= 2)
        limit = concentration._power_law_limit_loglik(values, weights, xmin)
        with mock.patch.object(
            concentration,
            "_newton_min",
            lambda objective, log_mean, q: golden_min(lambda b: objective(b, None), ()),
        ):
            oracle = concentration._power_law_limit_loglik(values, weights, xmin)
        # The largest log-likelihood is no lower than the oracle's, up to rounding.
        assert limit >= oracle - 1e-12 * abs(oracle)
        assert limit == pytest.approx(oracle, rel=1e-9)


class FixedDraws:
    """A stand-in generator whose random() returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


class TestFitCheck:
    """likelihood_ratio and gof_bootstrap take a fit only of the counts
    given: a power law whose tail holds fit.n_tail of them."""

    @pytest.fixture(scope="class")
    def data(self):
        x = gen_powerlaw_counts(2.5, 1, 3000, 0)
        y = gen_powerlaw_counts(2.0, 1, 600, 1)
        return x, y, fit_power_law(x), fit_power_law(y)

    @staticmethod
    def call(entry, counts, fit):
        if entry == "likelihood_ratio":
            return likelihood_ratio(counts, fit, "exponential")
        return gof_bootstrap(counts, fit, n_boot=100, seed=3)

    def test_only_a_fit_of_these_counts_is_taken(self, data):
        # The bootstrap used to score a fit of other counts (p 0.78), or to
        # fail inside numpy's binomial draw when its tail was longer than
        # the counts; likelihood_ratio already raised.  An integral float
        # cutoff is the same cutoff.
        x, y, fit_x, fit_y = data
        pinned = fit_power_law(x, xmin=2)
        for entry in ("likelihood_ratio", "gof_bootstrap"):
            for counts, fit in ((x, fit_y), (y, fit_x)):
                with pytest.raises(ValueError, match="do not match the fitted tail"):
                    self.call(entry, counts, fit)
            assert (self.call(entry, x, dataclasses.replace(pinned, xmin=2.0))
                    == self.call(entry, x, pinned))

    @pytest.mark.parametrize("entry", ["likelihood_ratio", "gof_bootstrap"])
    @pytest.mark.parametrize("change, match", [
        ({"xmin": 1.5}, "xmin must be a positive integer"),
        ({"xmin": 0}, "xmin must be a positive integer"),
        ({"alpha": np.nan}, "alpha must exceed 1"),
        ({"alpha": 0.5}, "alpha must exceed 1"),
        ({"alpha": np.inf}, "alpha must exceed 1"),
    ])
    def test_a_fit_that_is_no_power_law_is_an_error(self, data, entry, change, match):
        # A NaN exponent used to favor the alternative with a NaN statistic,
        # and a cutoff of 1.5 to give a bootstrap p of 0.96.
        x, _, fit, _ = data
        with pytest.raises(ValueError, match=match):
            self.call(entry, x, dataclasses.replace(fit, **change))


class TestSamplePowerLaw:
    @pytest.mark.parametrize("xmin", [1.5, 0, -3, np.nan])
    def test_a_cutoff_that_is_not_a_positive_integer_is_an_error(self, xmin):
        # A cutoff of 1.5 used to draw [2 1 1], below it.
        with pytest.raises(ValueError, match="xmin must be a positive integer"):
            sample_power_law(2.5, xmin, 3, np.random.default_rng(0))
        draws = sample_power_law(2.5, 3.0, 100, np.random.default_rng(0))
        assert draws.dtype == np.int64
        assert np.array_equal(draws, sample_power_law(2.5, 3, 100, np.random.default_rng(0)))

    def test_draws_past_the_table_solve_the_tail_quantile(self):
        for alpha, xmin in itertools.product([1.2, 1.3, 1.5], [1, 7]):
            norm = zeta(alpha, float(xmin))
            # Uniforms below the quantile of 2**40, so that no draw leaves
            # the int64 range.
            u = np.random.default_rng(1).random(20_000) * (1.0 - zeta(alpha, 2.0**40) / norm)
            draws = sample_power_law(alpha, xmin, u.size, FixedDraws(u))
            tail = draws > xmin + 100_000
            assert draws.dtype == np.int64 and tail.sum() > 10
            for x, ui in zip(draws[tail], u[tail]):
                survival_at = zeta(alpha, float(x)) / norm  # P(X >= x)
                survival_after = zeta(alpha, float(x + 1)) / norm  # P(X > x)
                assert survival_after <= 1.0 - ui < survival_at
            # The batch is bisected together; each draw equals its
            # uniform's draw alone (checked on the first 30 past the table).
            picked = np.flatnonzero(tail)[:30]
            alone = [sample_power_law(alpha, xmin, 1, FixedDraws(u[i:i + 1]))[0] for i in picked]
            assert np.array_equal(draws[picked], alone)

    @pytest.mark.parametrize("alpha", [1.3, 2.5, 4.0])
    @pytest.mark.parametrize("xmin", [1, 3])
    def test_two_step_lookup_equals_one_search_of_the_whole_table(self, alpha, xmin):
        support = np.arange(xmin, xmin + 100_000, dtype=float)
        cdf = np.cumsum(support**-alpha) / zeta(alpha, float(xmin))
        # Uniforms on, just under and just over the table's first entries
        # and the evenly spaced k / 1024, random ones, and ones past the
        # table's last entry.
        edges = np.concatenate([cdf[:200], np.arange(1024) / 1024])
        u = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            np.random.default_rng(int(10 * alpha) + xmin).random(20_000),
            np.nextafter(cdf[-1], 1.0) + np.array([0.0, 1e-12, 1e-9]),
        ])
        u = u[u < 1.0]
        draws = sample_power_law(alpha, xmin, u.size, FixedDraws(u))
        expected = xmin + np.searchsorted(cdf, u, side="left")
        inside = expected < xmin + 100_000
        assert np.array_equal(draws[inside], expected[inside])
        # Past the table both route to the tail quantile, which never
        # returns a value inside the table.
        assert np.all(draws[~inside] >= xmin + 100_000)
        if alpha < 4.0:
            assert (~inside).sum() > 0

    def test_draw_past_the_int64_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="exceeds the int64 range"):
            gen_powerlaw_counts(1.125, 1, 27, 0)

    def test_bracket_stops_at_the_int64_range(self):
        # Near alpha = 1 the last uniform below 1 draws past 2**63; the
        # bracket must stop there, not overflow a float on its way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the int64 range"):
                sample_power_law(1.05, 1, 1, FixedDraws(np.array([1 - 2**-53])))


class TestLikelihoodRatio:
    def test_power_law_data_favors_power_law(self):
        x = gen_powerlaw_counts(2.5, 1, 10_000, 21)
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "exponential")
        assert res.favored == "power_law"
        assert res.statistic > 0
        assert res.p_value < 0.05

    def test_geometric_data_favors_the_alternative(self):
        x = np.random.default_rng(22).geometric(0.25, size=10_000)
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "exponential")
        assert res.favored == "alternative"
        assert res.statistic < 0
        assert res.p_value < 0.05

    def test_lognormal_never_beats_power_law_on_power_law_data(self):
        x = gen_powerlaw_counts(2.5, 1, 10_000, 21)
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "lognormal")
        assert res.favored in ("power_law", "inconclusive")

    def test_identical_likelihoods_are_inconclusive(self):
        # On a constant tail both models put all mass on the single
        # observed value, so the ratio is exactly zero.
        x = np.full(200, 5)
        fit = fit_power_law(x, xmin=5)
        res = likelihood_ratio(x, fit, "exponential")
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.favored == "inconclusive"

    @pytest.mark.parametrize(
        "alpha, n, seed", [(2.5, 200, 8), (1.6, 200, 14), (1.8, 1000, 5), (2.0, 1000, 5)]
    )
    def test_lognormal_at_its_power_law_limit_is_inconclusive(self, alpha, n, seed):
        # On these tails the lognormal MLE runs off to mu -> -inf,
        # sigma -> inf; the last one stops there with a converged flag.
        x = gen_powerlaw_counts(alpha, 1, n, seed)
        fit = fit_power_law(x)
        res = likelihood_ratio(x, fit, "lognormal")
        assert (res.statistic, res.p_value, res.favored) == (0.0, 1.0, "inconclusive")
        assert res.mle_outcome == "boundary"

    def test_interior_lognormal_beats_its_power_law_limit(self):
        x = np.random.default_rng(3).lognormal(2.0, 1.0, 5000).round().astype(int) + 1
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "lognormal")
        assert res.favored == "alternative" and res.statistic < 0
        assert res.mle_outcome == "interior"

    def test_lognormal_search_cut_short_has_not_converged(self, monkeypatch):
        # No fixture found stops the search short of both an interior optimum
        # and the power-law limit, so the step budget is cut to one step.
        monkeypatch.setattr(concentration, "_LOGNORMAL_MAX_STEPS", 1)
        x = np.random.default_rng(3).lognormal(2.0, 1.0, 5000).round().astype(int) + 1
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "lognormal")
        assert (res.statistic, res.p_value, res.favored) == (0.0, 1.0, "inconclusive")
        assert res.mle_outcome == "not converged"

    def test_lognormal_search_stops_where_the_objective_is_inf(self):
        # At alpha 1.3 the search reaches stencil points it cannot
        # evaluate; differencing their inf would warn, and the suite makes
        # a RuntimeWarning an error.
        x = gen_powerlaw_counts(1.3, 1, 20_000, 0)
        res = likelihood_ratio(x, fit_power_law(x), "lognormal")
        assert (res.statistic, res.p_value, res.favored) == (0.0, 1.0, "inconclusive")
        assert res.mle_outcome == "not converged"

    @pytest.mark.parametrize("alternative", ["exponential", "lognormal"])
    def test_tail_mean_past_double_precision_is_inconclusive(self, alternative):
        # The geometric MLE's q = m / (1 + m) rounds to 1 for these counts.
        x = np.array([2**62] * 60 + list(range(1, 61)), dtype=np.int64)
        res = likelihood_ratio(x, fit_power_law(x), alternative)
        assert (res.statistic, res.p_value, res.favored) == (0.0, 1.0, "inconclusive")

    def test_exponential_alternative_names_no_search(self):
        x = gen_powerlaw_counts(2.5, 1, 1000, 1)
        fit = fit_power_law(x, xmin=1)
        assert likelihood_ratio(x, fit, "exponential").mle_outcome is None

    def test_unknown_alternative_is_an_error(self):
        x = gen_powerlaw_counts(2.5, 1, 1000, 1)
        fit = fit_power_law(x, xmin=1)
        with pytest.raises(ValueError):
            likelihood_ratio(x, fit, "weibull")

    @pytest.mark.parametrize("significance", [np.nan, 2.0, 1.0, 0.0, -1.0])
    def test_significance_outside_the_unit_interval_is_an_error(self, significance):
        x = gen_powerlaw_counts(2.5, 1, 1000, 1)
        fit = fit_power_law(x, xmin=1)
        with pytest.raises(ValueError, match="significance must be inside"):
            likelihood_ratio(x, fit, "exponential", significance)

    def test_tail_mismatch_is_an_error(self):
        x = gen_powerlaw_counts(2.5, 1, 1000, 1)
        fit = fit_power_law(x, xmin=1)
        with pytest.raises(ValueError):
            likelihood_ratio(x[x > 2], fit, "exponential")


class TestGofBootstrap:
    def test_calibrated_on_data_from_the_fitted_model(self):
        ps = []
        for r in range(20):
            x = gen_powerlaw_counts(2.5, 1, 2000, r * 1000)
            fit = fit_power_law(x, xmin=1)
            ps.append(gof_bootstrap(x, fit, n_boot=100, seed=60_000 + r))
        assert 0.3 <= np.mean(ps) <= 0.7

    def test_uniform_counts_are_rejected(self):
        x = np.random.default_rng(13).integers(1, 51, size=1000)
        fit = fit_power_law(x)
        assert gof_bootstrap(x, fit, n_boot=200, seed=61_000) < 0.1

    def test_small_n_boot_is_an_error(self):
        x = gen_powerlaw_counts(2.5, 1, 1000, 1)
        fit = fit_power_law(x, xmin=1)
        with pytest.raises(ValueError):
            gof_bootstrap(x, fit, n_boot=50)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_an_error(self, workers):
        # Such a count used to run the replicates serially.
        x = gen_powerlaw_counts(2.5, 1, 3000, 0)
        fit = fit_power_law(x)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            gof_bootstrap(x, fit, n_boot=100, seed=1, workers=workers)

    def test_failed_refits_count_against_the_model(self):
        # All ones fit an exponent of about 30, so each replicate draws 600
        # ones: a single distinct value, which leaves no cutoff to refit.
        x = np.ones(600, dtype=np.int64)
        fit = fit_power_law(x, xmin=1)
        with pytest.raises(ValueError, match="no cutoff"):
            fit_power_law(sample_power_law(fit.alpha, 1, 600, np.random.default_rng(4)))
        assert gof_bootstrap(x, fit, n_boot=100, seed=4) == 0.0

    def test_free_cutoff_bootstrap_is_calibrated(self):
        """The CLI's procedure, cutoff searched and then bootstrapped, on
        200 datasets from the model (about 4.5 s).  Under the model p is
        close to uniform: the mean of 200 has a standard error of about
        0.02, and the number below 0.05 is about binomial(200, 0.05),
        10 +- 3."""
        ps = []
        for r in range(200):
            x = gen_powerlaw_counts(2.5, 1, 200, 70_000 + r)
            ps.append(gof_bootstrap(x, fit_power_law(x), n_boot=100, seed=71_000 + r))
        ps = np.array(ps)
        assert 0.42 <= ps.mean() <= 0.58
        assert 1 <= (ps < 0.05).sum() <= 20

    def test_seeds_share_no_replicates(self):
        x = gen_powerlaw_counts(2.5, 1, 3000, 4)
        fit = fit_power_law(x)
        exceed = [round(200 * gof_bootstrap(x, fit, n_boot=200, seed=s)) for s in range(6)]
        # seeds s and s + 1 sharing all but one replicate would differ by at most one
        assert np.abs(np.diff(exceed)).max() > 1

    def test_observed_distance_comes_from_the_counts(self):
        # The observed distance is computed from the counts, so a stored KS
        # distance that is wrong or not a number leaves p where it is.
        x = gen_powerlaw_counts(2.5, 1, 5000, 0)
        fit = fit_power_law(x)
        p = gof_bootstrap(x, fit, n_boot=100, seed=0)
        assert 0 < p < 1
        for ks in (np.nan, -1.0, 0.0, 2.0, np.inf):
            stale = dataclasses.replace(fit, ks_statistic=ks)
            assert gof_bootstrap(x, stale, n_boot=100, seed=0) == p

    def test_two_workers_give_the_p_value_of_one(self):
        x = gen_powerlaw_counts(2.5, 1, 5000, 0)
        fit = fit_power_law(x)
        assert (gof_bootstrap(x, fit, n_boot=100, seed=3, workers=2)
                == gof_bootstrap(x, fit, n_boot=100, seed=3, workers=1))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_grouped_replicates_equal_the_per_replicate_loop(self, workers):
        # A body below the cutoff is resampled; 101 replicates do not fill
        # the last group.  Each replicate is materialised and fit alone.
        x = np.concatenate([gen_powerlaw_counts(2.5, 4, 400, 2),
                            np.random.default_rng(2).integers(1, 4, 200)])
        fit = fit_power_law(x)
        body_values, body_counts = np.unique(x[x < fit.xmin], return_counts=True)
        assert fit.xmin == 4 and body_counts.sum() == 200
        cdf = concentration._cdf_table(fit.alpha, fit.xmin)[0]
        tail_shares = np.append(np.diff(cdf[:256], prepend=0.0), 1.0 - cdf[255])
        exceed = 0
        for stream in np.random.SeedSequence(4).spawn(101):
            rng = np.random.Generator(np.random.PCG64(stream))
            m = int(rng.binomial(x.size, fit.n_tail / x.size))
            tail = rng.multinomial(m, tail_shares)
            u = cdf[255] + (1.0 - cdf[255]) * rng.random(tail[-1])
            past = np.searchsorted(cdf, u, side="left")
            assert np.all((past >= 256) & (past < cdf.size))
            synthetic = np.concatenate([
                np.repeat(fit.xmin + np.arange(256), tail[:-1]), fit.xmin + past,
                np.repeat(body_values, rng.multinomial(x.size - m, body_counts / 200)),
            ])
            try:
                exceed += fit_power_law(synthetic).ks_statistic > fit.ks_statistic
            except ValueError:
                pass
        assert 0 < exceed < 101
        assert gof_bootstrap(x, fit, n_boot=101, seed=4, workers=workers) == exceed / 101

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sample", ["low p", "high p", "body below xmin", "all ones"])
    def test_decision_equals_a_refit_of_each_replicate(self, sample, workers):
        # Under a low p most replicates are settled at the observed cutoff;
        # under a high p most go through the bounds.  The 600 ones leave no
        # replicate a cutoff to refit, so their fit pins xmin.
        x, xmin = {
            "low p": lambda: (np.random.default_rng(13).integers(1, 51, size=1000), None),
            "high p": lambda: (gen_powerlaw_counts(2.5, 1, 2000, 8), None),
            "body below xmin": lambda: (np.concatenate([
                gen_powerlaw_counts(2.5, 4, 400, 2), np.random.default_rng(2).integers(1, 4, 200)]),
                None),
            "all ones": lambda: (np.ones(600, dtype=np.int64), 1),
        }[sample]()
        fit = fit_power_law(x, xmin)
        exceed = 0
        for values, mult in bootstrap_replicates(x, fit, 100, seed=5):
            try:
                exceed += fit_power_law(np.repeat(values, mult)).ks_statistic > fit.ks_statistic
            except ValueError:
                pass
        assert gof_bootstrap(x, fit, n_boot=100, seed=5, workers=workers) == exceed / 100
        assert {"low p": exceed < 10, "high p": exceed > 50, "body below xmin": fit.xmin > 1,
                "all ones": exceed == 0}[sample]

    @settings(max_examples=60, deadline=None)
    @given(count_multisets, st.sampled_from([1, 2, 7, 33]), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.data())
    def test_decision_equals_the_grouped_refit(self, x, size, xmin, seed, data):
        # Each replicate of the group is refit alone; one that cannot be fit
        # never exceeds.  The threshold is a refit's own KS distance (a tie,
        # which does not exceed) or any number in [0, 1].  As in the KS scan
        # test, the bounds run with their defaults and at both extremes.
        group = [np.unique(g, return_counts=True) for g in mixed_group(x, size, seed)]
        ks = []
        for replicate in group:
            try:
                ks.append(concentration._fit(*replicate).ks_statistic)
            except ValueError:
                ks.append(None)
        ties = [k for k in ks if k is not None]
        threshold = data.draw(st.sampled_from(ties) | st.floats(0.0, 1.0) if ties
                              else st.floats(0.0, 1.0))
        expected = [k is not None and k > threshold for k in ks]
        for block, probe in ((concentration._CHUNK, concentration._KS_PROBE),
                             (7, 1), (7, 10**6)):
            with mock.patch.multiple(concentration, _CHUNK=block, _KS_PROBE=probe):
                assert concentration._exceeds(group, threshold, xmin).tolist() == expected

    def test_a_replicate_at_the_threshold_does_not_exceed(self):
        # The refit exceeds only when its KS distance is strictly above the
        # observed one.
        x = gen_powerlaw_counts(2.5, 1, 2000, 3)
        fit = fit_power_law(x)
        drawn = bootstrap_replicates(x, fit, 32, seed=6)
        for r, (values, mult) in enumerate(drawn):
            ks = fit_power_law(np.repeat(values, mult)).ks_statistic
            assert not concentration._exceeds(drawn, ks, fit.xmin)[r]
            assert concentration._exceeds(drawn, np.nextafter(ks, 0.0), fit.xmin)[r]

    def test_draws_past_the_int64_range_go_on_as_floats(self):
        # At alpha 1.2 a draw passes 2**63 with probability 1.4e-4, so some
        # of these replicates of 500 draws hold one; each is refit alone.
        x = gen_powerlaw_counts(1.2, 1, 500, 1)
        fit = fit_power_law(x)
        drawn = bootstrap_replicates(x, fit, 100, seed=1)
        assert sum(values.max() > 2.0**63 for values, _ in drawn) > 0
        exceed = 0
        for replicate in drawn:
            try:
                exceed += concentration._fit(*replicate).ks_statistic > fit.ks_statistic
            except ValueError:
                pass
        assert gof_bootstrap(x, fit, n_boot=100, seed=1) == exceed / 100

    def test_pool_starts_no_more_processes_than_groups(self, monkeypatch):
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        x = gen_powerlaw_counts(2.5, 1, 600, 9)
        fit = fit_power_law(x, xmin=1)
        serial = gof_bootstrap(x, fit, n_boot=100, seed=4)
        assert gof_bootstrap(x, fit, n_boot=100, seed=4, workers=64) == serial
        assert asked == [4]  # 100 replicates make 4 groups

    def test_parallel_run_matches_serial(self):
        x = gen_powerlaw_counts(2.5, 1, 600, 9)
        fit = fit_power_law(x, xmin=1)
        serial = gof_bootstrap(x, fit, n_boot=100, seed=4, workers=1)
        parallel = gof_bootstrap(x, fit, n_boot=100, seed=4, workers=2)
        assert serial == parallel


class FixedReplicateDraws:
    """A stand-in generator for one replicate: the tail and body
    multiplicities given, and every uniform 0."""

    def __init__(self, tail, body):
        self.tail, self.body = np.array(tail), np.array(body)

    def binomial(self, n, p):
        return self.tail.sum()

    def multinomial(self, n, shares):
        draw = self.tail if len(shares) == self.tail.size else self.body
        assert draw.sum() == n
        return draw

    def random(self, size):
        return np.zeros(size)


class TestReplicateMultiplicities:
    def test_tail_multiplicities_follow_the_fitted_law(self):
        # 100 replicates of 10,000 counts, all in the tail: a million draws,
        # about 11,600 past the 256-point head and 30 past the table.
        alpha, xmin, n = 2.0, 3, 10_000
        empty = np.zeros(0, np.int64)
        edges = np.array([*range(3, 41), 60, 100, 259, 500, 2000, 100_003])
        observed = np.zeros(edges.size)
        for r in range(100):
            ((values, mult),) = concentration._draw_group(
                [np.random.default_rng(r)], n, 1.0, alpha, xmin, empty, empty / 1.0)
            assert np.all(np.diff(values) > 0) and mult.min() > 0 and mult.sum() == n
            observed += np.bincount(np.searchsorted(edges, values, side="right") - 1,
                                    weights=mult, minlength=edges.size)
        survival = zeta(alpha, np.append(edges, np.inf).astype(float)) / zeta(alpha, float(xmin))
        expected = 100 * n * -np.diff(survival)
        assert observed[-1] > 0  # draws past the table
        assert chisquare(observed, expected).pvalue > 1e-3

    def test_body_multiplicities_follow_the_empirical_shares(self):
        body_values = np.array([1, 2, 3, 5, 8])
        body_counts = np.array([50, 30, 10, 7, 3])
        shares = body_counts / body_counts.sum()
        observed = np.zeros(body_values.size)
        for r in range(200):
            ((values, mult),) = concentration._draw_group(
                [np.random.default_rng(r)], 1000, 0.3, 2.5, 9, body_values, shares)
            assert np.all(np.diff(values) > 0) and mult.min() > 0 and mult.sum() == 1000
            below = values < 9
            observed[np.searchsorted(body_values, values[below])] += mult[below]
        assert chisquare(observed, observed.sum() * shares).pvalue > 1e-3

    def test_draws_past_the_head_at_fixed_uniforms(self):
        alpha, xmin = 1.5, 2
        cdf = concentration._cdf_table(alpha, xmin)[0]
        c = cdf[255]
        inside = (0.5 * (cdf[999] + cdf[1000]) - c) / (1.0 - c)  # midway in the cell of xmin + 1000
        beyond = 0.99  # survival 0.01 (1 - c), past the table's last entry
        draws = concentration._past_head(np.array([inside, beyond, 0.0]), alpha, xmin)
        assert draws[0] == xmin + 1000
        u = c + (1.0 - c) * beyond
        assert u > cdf[-1] and draws[1] > xmin + 100_000
        norm = zeta(alpha, float(xmin))
        assert zeta(alpha, float(draws[1] + 1)) / norm <= 1.0 - u < zeta(alpha, float(draws[1])) / norm
        # u = c exactly still lies past the head
        assert draws[2] == xmin + 256
        # Past the int64 range the bootstrap's draws go on as floats: the
        # smallest float x above 2**63 whose survival zeta(alpha, x) / norm
        # is at most 1 - u (x + 1 rounds to x there).
        alpha, c = 1.125, concentration._cdf_table(1.125, 1)[0][255]
        draws = concentration._past_head(np.array([0.999]), alpha, 1)
        target = (1.0 - (c + (1.0 - c) * 0.999)) * zeta(alpha, 1.0)
        assert draws.dtype == float and draws[0] > 2.0**63
        assert zeta(alpha, draws[0]) == pytest.approx(target, rel=1e-12)
        survival = [concentration._zeta(alpha, x) for x in (draws[0], np.nextafter(draws[0], 0.0))]
        assert survival[0] <= target < survival[1]

    def test_last_head_point_and_the_first_past_it_stay_distinct(self):
        tail = np.zeros(257, np.int64)
        tail[[0, 255, 256]] = 4, 3, 2  # two draws past the head, both at v = 0
        ((values, mult),) = concentration._draw_group(
            [FixedReplicateDraws(tail, [5, 1])], 15, 0.5, 2.5, 3, np.array([1, 2]), np.array([0.5, 0.5]))
        assert values.tolist() == [1, 2, 3, 3 + 255, 3 + 256]
        assert mult.tolist() == [5, 1, 4, 3, 2]


class TestDistinctValueOracles:
    """The likelihood ratios and the sampler work on (distinct value,
    multiplicity) pairs; these compare them with per-observation forms."""

    @settings(max_examples=60, deadline=None)
    @given(count_multisets, st.integers(1, 4))
    def test_weighted_geometric_sum_matches_per_observation(self, x, xmin):
        tail = x[x >= xmin].astype(float)
        assume(tail.size > 0)
        values, weights = np.unique(tail, return_counts=True)
        weighted = (weights * concentration._geometric_tail_loglik(values, weights, xmin)).sum()
        m = (tail - xmin).mean()
        if m == 0:
            expected = 0.0
        else:
            q = m / (1.0 + m)
            expected = (np.log1p(-q) + (tail - xmin) * np.log(q)).sum()
        assert weighted == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(
        count_multisets,
        st.integers(1, 4),
        st.floats(-3.0, 6.0),
        st.floats(0.2, 4.0),
    )
    def test_weighted_lognormal_sum_matches_per_observation(self, x, xmin, mu, sigma):
        tail = x[x >= xmin].astype(float)
        assume(tail.size > 0)
        values, weights = np.unique(tail, return_counts=True)
        cells = concentration._lognormal_cell_logprobs
        weighted = (weights * cells(values, xmin, mu, sigma)).sum()
        expected = cells(tail, xmin, mu, sigma).sum()
        assert weighted == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(count_multisets)
    def test_exponential_vuong_statistic_matches_per_observation(self, x):
        try:
            fit = fit_power_law(x)
        except ValueError:
            assume(False)
        tail = x[x >= fit.xmin].astype(float)
        pl = -fit.alpha * np.log(tail) - np.log(zeta(fit.alpha, float(fit.xmin)))
        m = (tail - fit.xmin).mean()
        assume(m > 0)
        q = m / (1.0 + m)
        diff = pl - (np.log1p(-q) + (tail - fit.xmin) * np.log(q))
        assume(diff.std() > 0)
        scale = np.sqrt(tail.size) * diff.std()
        expected = diff.sum() / scale
        res = likelihood_ratio(x, fit, "exponential")
        # Relative to the summed terms, so a statistic near 0 is covered.
        assert res.statistic == pytest.approx(
            expected, rel=1e-12, abs=1e-12 * np.abs(diff).sum() / scale
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(1.5, 4.0),
        st.integers(1, 50),
        st.integers(0, 3000),
        st.integers(0, 2**32 - 1),
    )
    def test_sampler_table_cache_does_not_change_draws(self, alpha, xmin, size, seed):
        def draw():
            return sample_power_law(alpha, xmin, size, np.random.default_rng(seed))

        concentration._cdf_table.cache_clear()
        cold = draw()
        warm = draw()
        # The table as built inline on every call, before it was cached.
        support = np.arange(xmin, xmin + 100_000, dtype=float)
        cdf = np.cumsum(support**-alpha) / zeta(alpha, float(xmin))
        u = np.random.default_rng(seed).random(size)
        inline = xmin + np.searchsorted(cdf, u, side="left")
        inside = inline < xmin + 100_000
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold[inside], inline[inside])


class TestSpecialFunctionOracles:
    """The numpy Hurwitz zeta, normal tail and lognormal MLE against scipy,
    which serves only as a test oracle."""

    def test_zeta_matches_scipy(self):
        qs = np.concatenate([
            np.geomspace(1.0, 1e12, 241),
            np.arange(1.0, 40.0),
            1e8 + np.arange(-3.0, 4.0),  # both sides of the switch to the asymptotic term
            [np.nextafter(1e8, 0), np.nextafter(1e8, np.inf)],
        ])
        alphas, qs = (a.ravel() for a in np.meshgrid(np.linspace(1.000001, 30.0, 59), qs))
        # zeta(30, q) passes through the subnormals to 0 above q = 4e10
        alphas = np.concatenate([alphas, np.full(60, 30.0)])
        qs = np.concatenate([qs, np.geomspace(4e10, 1e12, 60)])
        ours, oracle = concentration._zeta(alphas, qs), zeta(alphas, qs)
        assert np.array_equal(ours == 0, oracle == 0)
        assert (oracle == 0).sum() > 30
        normal = oracle >= np.finfo(float).tiny
        assert np.abs(ours[normal] / oracle[normal] - 1.0).max() <= 2e-15
        assert np.abs(ours - oracle)[~normal].max() <= 1e-320
        assert np.array_equal(concentration._zeta(alphas[:6].reshape(2, 3), qs[:6].reshape(2, 3)),
                              ours[:6].reshape(2, 3))

    def test_log_ndtr_matches_scipy(self):
        z = np.concatenate([
            np.linspace(-1e3, 40.0, 20_801),
            np.linspace(-20.5, -19.5, 1001),  # both sides of the switch to the series
            [-20.0, np.nextafter(-20.0, 0), np.nextafter(-20.0, -np.inf),
             -1.0, np.nextafter(-1.0, 0), -np.inf, np.inf],
        ])
        ours, oracle = concentration._log_ndtr(z), log_ndtr(z)
        assert np.array_equal(ours == -np.inf, oracle == -np.inf)
        finite = np.isfinite(oracle)
        normal = finite & (np.abs(oracle) >= np.finfo(float).tiny)
        assert np.abs(ours[normal] / oracle[normal] - 1.0).max() <= 1e-13
        # far in the upper tail log Phi(z) = -Phi(-z) is subnormal or 0
        assert np.abs(ours[finite & ~normal] - oracle[finite & ~normal]).max() <= 1e-300
        assert np.array_equal(concentration._log_ndtr(z[:6].reshape(2, 3)), ours[:6].reshape(2, 3))

    @pytest.mark.parametrize("make", [
        lambda: gen_powerlaw_counts(2.5, 1, 10_000, 21),
        lambda: gen_powerlaw_counts(2.0, 1, 300, 4),
        lambda: np.random.default_rng(22).geometric(0.25, size=10_000),
        lambda: np.random.default_rng(23).geometric(0.6, size=500),
    ])
    def test_p_value_matches_the_scipy_normal_tail(self, make):
        x = make()
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "exponential")
        assert res.p_value == pytest.approx(2.0 * ndtr(-abs(res.statistic)), rel=1e-12)

    def test_lognormal_newton_matches_nelder_mead(self):
        from scipy.optimize import minimize

        # the data of test_interior_lognormal_beats_its_power_law_limit
        x = np.random.default_rng(3).lognormal(2.0, 1.0, 5000).round().astype(int) + 1
        values, weights = np.unique(x.astype(float), return_counts=True)

        def cells(params):
            return concentration._lognormal_cell_logprobs(values, 1, params[0], np.exp(params[1]))

        logs = np.log(values)
        mean = (weights * logs).sum() / weights.sum()
        sd = np.sqrt((weights * (logs - mean) ** 2).sum() / weights.sum())
        oracle = minimize(lambda p: -(weights * cells(p)).sum(), [mean, np.log(sd)],
                          method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 10_000})
        assert oracle.success
        outcome, ours = concentration._lognormal_tail_loglik(values, weights, 1)
        assert outcome == "interior"
        assert (weights * ours).sum() == pytest.approx(-oracle.fun, rel=1e-13)
        np.testing.assert_allclose(ours, cells(oracle.x), rtol=1e-6)
