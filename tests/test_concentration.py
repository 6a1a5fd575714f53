"""Lorenz/Gini, discrete power-law fitting and model comparison."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

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
    fitted zeta CDF."""
    n = tail_counts.sum()
    ecdf = np.cumsum(tail_counts) / n
    fitted = 1.0 - zeta(alpha, values + 1.0) / zeta(alpha, float(xmin))
    return float(np.abs(ecdf - fitted).max())


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
    best = None
    for c, q in zip(starts, qs):
        log_mean = tail_logsum[c] / tail_n[c]
        alpha = concentration._golden_min(
            lambda a: concentration._zeta_log_likelihood(a, log_mean, q), ()
        )
        ks = tail_ks(values[c:], mult[c:], alpha, q)
        if best is None or ks < best[2]:
            best = (float(alpha), int(q), ks, int(tail_n[c]))
    return best


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
        # Tiny blocks cover the scan's split into row blocks; a one-value
        # probe prunes least, a probe as long as any tail prunes most.
        for block, probe in ((concentration._KS_BLOCK, concentration._KS_PROBE),
                             (7, 1), (7, 10**6)):
            with mock.patch.multiple(concentration, _KS_BLOCK=block, _KS_PROBE=probe):
                try:
                    fit = fit_power_law(x, xmin=xmin)
                except ValueError:
                    assume(False)
            assert (fit.alpha, fit.xmin, fit.ks_statistic, fit.n_tail) == expected

    def test_gini_decreases_as_alpha_grows(self):
        ginis = [
            lorenz(gen_powerlaw_counts(a, 1, 10_000, 60)).gini
            for a in (2.1, 2.5, 3.0, 4.0)
        ]
        assert all(a > b for a, b in zip(ginis, ginis[1:]))


class TestSamplePowerLaw:
    def test_draws_past_the_table_solve_the_tail_quantile(self):
        alpha, xmin = 1.3, 1
        u = np.random.default_rng(1).random(3000)
        draws = sample_power_law(alpha, xmin, 3000, np.random.default_rng(1))
        tail = draws > xmin + 100_000
        assert draws.dtype == np.int64 and tail.sum() > 10
        norm = zeta(alpha, float(xmin))
        for x, ui in zip(draws[tail], u[tail]):
            survival_at = zeta(alpha, float(x)) / norm  # P(X >= x)
            survival_after = zeta(alpha, float(x + 1)) / norm  # P(X > x)
            assert survival_after <= 1.0 - ui < survival_at

    def test_draw_past_the_int64_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="exceeds the int64 range"):
            gen_powerlaw_counts(1.125, 1, 27, 0)


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

    def test_interior_lognormal_beats_its_power_law_limit(self):
        x = np.random.default_rng(3).lognormal(2.0, 1.0, 5000).round().astype(int) + 1
        fit = fit_power_law(x, xmin=1)
        res = likelihood_ratio(x, fit, "lognormal")
        assert res.favored == "alternative" and res.statistic < 0

    def test_unknown_alternative_is_an_error(self):
        x = gen_powerlaw_counts(2.5, 1, 1000, 1)
        fit = fit_power_law(x, xmin=1)
        with pytest.raises(ValueError):
            likelihood_ratio(x, fit, "weibull")

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

    def test_failed_refits_count_against_the_model(self, monkeypatch):
        x = gen_powerlaw_counts(2.5, 1, 600, 9)
        fit = fit_power_law(x, xmin=1)

        def failing_fit(counts, xmin=None):
            raise ValueError("degenerate replicate")

        monkeypatch.setattr(concentration, "fit_power_law", failing_fit)
        assert gof_bootstrap(x, fit, n_boot=100, seed=4) == 0.0

    def test_parallel_run_matches_serial(self):
        x = gen_powerlaw_counts(2.5, 1, 600, 9)
        fit = fit_power_law(x, xmin=1)
        serial = gof_bootstrap(x, fit, n_boot=100, seed=4, workers=1)
        parallel = gof_bootstrap(x, fit, n_boot=100, seed=4, workers=2)
        assert serial == parallel


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
