"""Wavelet rhythm analysis for weekly count series.

The pipeline: remove the slow trend with a one-year moving average and
standardize, take a continuous Morlet wavelet transform on a dyadic
scale grid, and judge power against a lag-1 autoregressive (red noise)
null.  Scale-averaged power over the 0.8 to 1.1 year band isolates the
circannual rhythm; summing the band's significance masks across the
regions of a city gives the composed power, a week-by-week count of
rhythmic regions.

Wavelet normalization, cone of influence, red-noise spectrum and the
chi-squared degrees-of-freedom corrections follow the practical
conventions of Torrence and Compo (1998) for the omega0 = 6 Morlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .series import TimeSeries, WEEK_STEP_YEARS

MORLET_OMEGA0 = 6.0
# Fourier period of a unit-scale omega0=6 Morlet: close to but not 1.
FOURIER_FACTOR = 4.0 * np.pi / (MORLET_OMEGA0 + np.sqrt(2.0 + MORLET_OMEGA0**2))
PSI0 = np.pi**-0.25
CDELTA = 0.776  # reconstruction constant
GAMMA_DECORR = 2.32  # temporal decorrelation scale for averaged spectra
DJ0 = 0.60  # scale decorrelation distance
DOFMIN = 2.0  # a complex wavelet has two degrees of freedom per point

CIRCANNUAL_BAND = (0.8, 1.1)  # scale band, in years

TREND_WINDOW = 53  # weeks, about one year and odd
MIN_DETREND_LENGTH = 104  # two years of weekly data
DEFAULT_ALPHA_LEVEL = 0.05
DEFAULT_S0 = 2 * WEEK_STEP_YEARS  # two weeks
DJ = 0.1  # scale grid step, in octaves
MAX_SCALE_YEARS = 4.0  # the grid's last scale is the first at or above it
MAX_FILL_GAP = 2
COMPOSED_BLOCK_ROWS = 64  # regions per batched transform; bounds its memory
FLAT_SERIES = "series has no variance after trend removal"


@dataclass
class WaveletField:
    """A CWT and the facts needed to test it against red noise.

    `coefficients` has shape (..., n_scales, n_times), one leading index
    per analyzed series; `coi_scale[t]` is the largest scale free of
    edge effects at time t (e-folding distance of the wavelet's
    envelope).  `series_variance` and `lag1` describe each analyzed
    series and parameterize its null spectrum.
    """

    coefficients: np.ndarray
    scales: np.ndarray
    coi_scale: np.ndarray
    series_variance: float | np.ndarray
    lag1: float | np.ndarray
    t0: np.datetime64 | None = None

    @property
    def n_times(self) -> int:
        return self.coefficients.shape[-1]

    @property
    def periods(self) -> np.ndarray:
        return self.scales * FOURIER_FACTOR

    def power(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


@dataclass
class GlobalSpectrum:
    """Time-averaged wavelet power with its red-noise threshold."""

    scales: np.ndarray
    power: np.ndarray
    significance: np.ndarray

    def peak_scales(self) -> np.ndarray:
        """Scales of local power maxima that clear the threshold."""
        p = self.power
        interior = np.zeros(p.size, dtype=bool)
        interior[1:-1] = (p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:])
        interior[0] = p.size > 1 and p[0] > p[1]
        interior[-1] = p.size > 1 and p[-1] > p[-2]
        return self.scales[interior & (p > self.significance)]


@dataclass
class BandPower:
    """Scale-averaged power over one band, against a red-noise threshold
    per series.  `significant` is already masked by COI validity."""

    band: tuple
    power: np.ndarray
    threshold: float | np.ndarray
    significant: np.ndarray
    coi_valid: np.ndarray


@dataclass
class ComposedPower:
    """Count of simultaneously rhythmic regions, week by week."""

    c_b: np.ndarray
    regions_valid: np.ndarray
    week_starts: np.ndarray
    region_ids: np.ndarray
    masks: np.ndarray
    rejected: list = field(default_factory=list)


def fill_gaps(values) -> np.ndarray:
    """Linearly interpolate interior NaN runs of at most MAX_FILL_GAP
    samples.  Longer runs, or NaNs touching either edge, are errors."""
    v = np.asarray(values, dtype=float).copy()
    missing = np.isnan(v)
    if not missing.any():
        return v
    if missing.all():
        raise ValueError("series is entirely missing")
    if missing[0] or missing[-1]:
        raise ValueError("missing values at the series edge cannot be interpolated")
    edges = np.diff(missing.astype(int))
    starts = np.nonzero(edges == 1)[0] + 1
    ends = np.nonzero(edges == -1)[0] + 1
    longest = int((ends - starts).max())
    if longest > MAX_FILL_GAP:
        raise ValueError(f"gap of {longest} weeks exceeds the {MAX_FILL_GAP}-week limit")
    good = np.nonzero(~missing)[0]
    v[missing] = np.interp(np.nonzero(missing)[0], good, v[good])
    return v


def _standardized_residuals(y: np.ndarray):
    """Residuals from a centered TREND_WINDOW moving average along the
    last axis of `y`, scaled to unit variance, and the mask of rows that
    are constant up to rounding after trend removal (left as zeros).  The
    window is clipped at the series edges (shorter, asymmetric averages
    there), which keeps the output length equal to the input length."""
    n = y.shape[-1]
    csum = np.concatenate([np.zeros(y.shape[:-1] + (1,)), np.cumsum(y, axis=-1)], axis=-1)
    lo = np.maximum(np.arange(n) - TREND_WINDOW // 2, 0)
    hi = np.minimum(np.arange(n) + TREND_WINDOW // 2, n - 1)
    residual = y - (csum[..., hi + 1] - csum[..., lo]) / (hi - lo + 1)
    sd = residual.std(axis=-1, keepdims=True)
    flat = sd <= 1e-12 * (1.0 + np.abs(y).max(axis=-1, keepdims=True))
    standardized = np.divide(residual, sd, out=np.zeros_like(residual), where=~flat)
    return standardized, flat[..., 0]


def detrend(series: TimeSeries) -> TimeSeries:
    """Subtract a centered TREND_WINDOW moving average and scale to unit
    variance.

    Needs two years of weekly data; a series that is constant up to
    rounding after trend removal is an error because it cannot be
    standardized.
    """
    y = series.values
    if y.size < MIN_DETREND_LENGTH:
        raise ValueError(f"detrending needs at least {MIN_DETREND_LENGTH} samples")
    if np.isnan(y).any():
        raise ValueError("series has missing values; fill gaps first")
    anomaly, flat = _standardized_residuals(y)
    if flat:
        raise ValueError(FLAT_SERIES)
    return TimeSeries(anomaly, series.t0)


def lag1_autocorrelation(values):
    """Sample lag-1 autocorrelation along the last axis, clipped to
    [0, 1) for use as a red noise parameter."""
    x = np.asarray(values, dtype=float)
    x = x - x.mean(axis=-1, keepdims=True)
    denom = (x * x).sum(axis=-1)
    a = (x[..., 1:] * x[..., :-1]).sum(axis=-1)
    a = np.divide(a, denom, out=np.zeros_like(denom), where=denom != 0)
    return np.clip(a, 0.0, 0.999999)


def _scale_grid(s0, required_band) -> np.ndarray:
    """The dyadic scale grid s0 * 2**(j * DJ) up to MAX_SCALE_YEARS.
    `required_band` asserts that the grid brackets a band of interest."""
    if not s0 > 0:  # before the logarithm, which warns on s0 <= 0
        raise ValueError("s0 must be positive")
    ratio = MAX_SCALE_YEARS / float(s0)  # Python floats: inf, with no warning, on overflow
    if not ratio > 1:  # s0 = inf included
        raise ValueError("max scale must exceed the smallest scale")
    if not 2.0 * ratio < np.inf:  # the grid's last step 2**(n_scales * DJ) lies below 2 * ratio
        raise ValueError(f"s0 {s0} is too small: its scale grid overflows")
    n_scales = int(np.ceil(np.log2(ratio) / DJ))
    scales = s0 * 2.0 ** (DJ * np.arange(n_scales + 1))
    if required_band is not None:
        if scales[0] > required_band[0] or scales[-1] < required_band[1]:
            raise ValueError(
                f"scale grid [{scales[0]:.3f}, {scales[-1]:.3f}] does not cover "
                f"the band {required_band}"
            )
    return scales


def _wavelet_field(y, scales, t0=None) -> WaveletField:
    """Morlet (omega0 = 6) transform of each series along the last axis
    of `y`, at `scales`.  The transform is computed in the frequency
    domain with zero padding to the next power of two, which both speeds
    up the FFT and suppresses wraparound."""
    n = y.shape[-1]
    x = y - y.mean(axis=-1, keepdims=True)
    nfft = 1 << int(n - 1).bit_length()
    if nfft == n:
        nfft *= 2  # always pad, even when n is a power of two
    omega = 2.0 * np.pi * np.fft.fftfreq(nfft, d=WEEK_STEP_YEARS)
    spectrum = np.fft.fft(x, nfft, axis=-1)
    # Frequency-domain daughters with unit-energy normalization.
    arg = scales[:, None] * omega[None, :]
    daughters = (
        np.sqrt(2.0 * np.pi * scales[:, None] / WEEK_STEP_YEARS)
        * PSI0
        * np.exp(-0.5 * (arg - MORLET_OMEGA0) ** 2)
        * (omega[None, :] > 0)
    )
    coefficients = np.fft.ifft(spectrum[..., None, :] * daughters, axis=-1)[..., :n]

    steps_from_edge = np.minimum(np.arange(n), np.arange(n)[::-1])
    return WaveletField(
        coefficients=coefficients,
        scales=scales,
        coi_scale=WEEK_STEP_YEARS * steps_from_edge / np.sqrt(2.0),
        series_variance=y.var(axis=-1),
        lag1=lag1_autocorrelation(y),
        t0=t0,
    )


def cwt(
    series: TimeSeries,
    s0: float = DEFAULT_S0,
    required_band: tuple | None = CIRCANNUAL_BAND,
) -> WaveletField:
    """Continuous Morlet (omega0 = 6) wavelet transform on the dyadic
    scale grid from `s0`, which is checked before any work is done."""
    if np.isnan(series.values).any():
        raise ValueError("series has missing values; fill gaps first")
    scales = _scale_grid(s0, required_band)
    return _wavelet_field(series.values, scales, series.t0)


def _red_noise_spectrum(lag1: float | np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Normalized AR(1) spectrum at the Fourier periods of the scales."""
    freq = WEEK_STEP_YEARS / periods  # cycles per sampling step
    return (1.0 - lag1**2) / (
        1.0 + lag1**2 - 2.0 * lag1 * np.cos(2.0 * np.pi * freq)
    )


def _log_upper_gamma(a: np.ndarray, x: np.ndarray):
    """log Q(a, x), the regularized upper incomplete gamma function, and
    log(x**a * exp(-x) / Gamma(a)), for arrays a > 0 and x > 0 of one shape.

    Below a + 1, Q is 1 - P with P from its power series; above, Q is
    Legendre's continued fraction, evaluated by the modified Lentz method
    (Press et al., Numerical Recipes, 3rd ed., section 6.2).  Each sums
    until its last term no longer changes the result in double precision.
    """
    log_scale = a * np.log(x) - x - np.array([math.lgamma(v) for v in a.tolist()])
    log_q = np.empty_like(x)
    series = x < a + 1.0
    s, y = a[series], x[series]
    term = total = 1.0 / s
    n = 0
    while (term > 1e-17 * total).any():
        n += 1
        term = term * y / (s + n)
        total = total + term
    log_q[series] = np.log1p(-total * np.exp(log_scale[series]))
    s, y = a[~series], x[~series]
    b = y + 1.0 - s
    c, d = np.full_like(b, np.inf), 1.0 / b
    fraction, delta, i = d, 0.0, 0
    while (np.abs(delta - 1.0) > 1e-15).any():
        i += 1
        an = i * (s - i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        fraction = fraction * delta
    log_q[~series] = log_scale[~series] + np.log(fraction)
    return log_q, log_scale


def _chi2_quantile(dof, alpha_level: float):
    """The chi-squared quantile that `dof` degrees of freedom exceed with
    probability `alpha_level`: 2x where Q(dof / 2, x) = alpha_level.

    The upper tail is solved directly, so a tiny alpha_level keeps its
    precision (1 - alpha_level rounds to 1 below about 5.6e-17).  The start
    is the Wilson-Hilferty cube of the normal quantile (Wilson and
    Hilferty, PNAS 17, 1931), or for a lower-tail quantile the leading term
    of P's series if that is larger; Halley steps on log Q
    (`_log_upper_gamma`) then converge in two to five steps, as DiDonato
    and Morris, ACM TOMS 12 (1986), do on the incomplete gamma ratio.
    Within 1e-13 relative of scipy.special.gammainccinv for dof 1 to 1000.
    The degrees of freedom come from Torrence and Compo, BAMS 79 (1998);
    both callers pass dof of at least DOFMIN = 2 (band_power's smallest on
    the default scale grid is 2.03), which is the domain this solver
    serves.  Below dof 1 with alpha_level near 1 it returns NaN.
    """
    if not 0 < alpha_level < 1:
        raise ValueError("alpha_level must be inside (0, 1)")
    from statistics import NormalDist  # its 5 ms import only where it is used

    a = np.asarray(dof, dtype=float).ravel() / 2.0
    z = -NormalDist().inv_cdf(alpha_level)
    log_gamma1 = np.array([math.lgamma(v + 1.0) for v in a.tolist()])
    x = np.maximum(a * np.maximum(1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a)), 0.0) ** 3,
                   np.exp((math.log1p(-alpha_level) + log_gamma1) / a))  # P ~ x**a / Gamma(a+1)
    for _ in range(32):
        log_q, log_scale = _log_upper_gamma(a, x)
        # Halley on h = log Q - log alpha, with h' = -r for the hazard
        # r = x**(a-1) e**-x / (Gamma(a) Q) and h'' = -r ((a-1)/x - 1) - r**2.
        h = log_q - math.log(alpha_level)
        t = h * x * np.exp(log_q - log_scale)  # h / r
        step = t / (1.0 + 0.5 * t * ((a - 1.0) / x - 1.0) + 0.5 * h)
        x = x + step
        if (np.abs(step) <= 1e-8 * x).all():  # cubic: the error left is below rounding
            break
    return (2.0 * x).reshape(np.shape(dof))[()]


def global_spectrum(
    field: WaveletField, alpha_level: float = DEFAULT_ALPHA_LEVEL
) -> GlobalSpectrum:
    """Time-averaged power per scale with red-noise significance.

    Averaging over time raises the degrees of freedom above the
    pointwise value of 2; the correction shrinks with scale because
    fewer independent wavelet samples fit in the series at large
    scales, and only the points inside the cone of influence should be
    counted (approximated by n - scale / WEEK_STEP_YEARS).
    """
    n = field.n_times
    power = field.power().mean(axis=-1)
    background = field.series_variance * _red_noise_spectrum(field.lag1, field.periods)
    n_avg = np.maximum(n - field.scales / WEEK_STEP_YEARS, 1.0)
    dof = DOFMIN * np.sqrt(1.0 + (n_avg * WEEK_STEP_YEARS / (GAMMA_DECORR * field.scales)) ** 2)
    significance = background * _chi2_quantile(dof, alpha_level) / dof
    return GlobalSpectrum(scales=field.scales.copy(), power=power, significance=significance)


def _band_scales(scales: np.ndarray, band: tuple) -> np.ndarray:
    """Check `band`; the mask of `scales` in the band."""
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError("band must satisfy 0 < low < high")
    selected = (scales >= lo) & (scales <= hi)
    if not selected.any():
        raise ValueError(f"band {band} does not intersect the scale grid")
    return selected


def band_power(
    field: WaveletField,
    band: tuple = CIRCANNUAL_BAND,
    alpha_level: float = DEFAULT_ALPHA_LEVEL,
) -> BandPower:
    """Scale-averaged power over `band` and its red-noise threshold,
    per series of `field`.

    The average is the scale-weighted sum
    (DJ * WEEK_STEP_YEARS / Cdelta) * sum of power / scale, tested as a
    chi-squared variable whose degrees of freedom account for the number
    of scales averaged and their decorrelation.  Time steps whose cone of
    influence excludes any scale in the band are reported in `coi_valid`
    and masked out of `significant`.
    """
    selected = _band_scales(field.scales, band)
    s = field.scales[selected]
    power = field.power()[..., selected, :]
    averaged = (DJ * WEEK_STEP_YEARS / CDELTA) * (power / s[:, None]).sum(axis=-2)

    n_avg = int(selected.sum())
    s_avg = 1.0 / (1.0 / s).sum()
    s_mid = float(np.exp(0.5 * (np.log(s[0]) + np.log(s[-1]))))
    dof = DOFMIN * (n_avg * s_avg / s_mid) * np.sqrt(1.0 + (n_avg * DJ / DJ0) ** 2)
    lag1 = np.asarray(field.lag1)[..., None]  # one row of scales per series
    background = _red_noise_spectrum(lag1, s * FOURIER_FACTOR)
    p_avg = s_avg * (background / s).sum(axis=-1)
    threshold = (
        (DJ * WEEK_STEP_YEARS / (CDELTA * s_avg))
        * field.series_variance
        * p_avg
        * _chi2_quantile(dof, alpha_level)
        / dof
    )
    coi_valid = field.coi_scale >= s[-1]
    significant = (averaged > threshold[..., None]) & coi_valid
    return BandPower(
        band=(float(band[0]), float(band[1])),
        power=averaged,
        threshold=threshold,
        significant=significant,
        coi_valid=coi_valid,
    )


def reconstruct_band(field: WaveletField, band: tuple | None = None) -> TimeSeries:
    """Invert the transform over a scale band (all scales when None).

    Uses the delta-function reconstruction: sum of Re(W)/sqrt(scale)
    rescaled by DJ * sqrt(WEEK_STEP_YEARS) / (Cdelta * psi0(0)).  With
    the full grid this recovers the anomaly series up to small
    discretization and edge errors.
    """
    selected = slice(None) if band is None else _band_scales(field.scales, band)
    s = field.scales[selected]
    parts = field.coefficients[selected].real / np.sqrt(s)[:, None]
    values = (DJ * np.sqrt(WEEK_STEP_YEARS) / (CDELTA * PSI0)) * parts.sum(axis=0)
    return TimeSeries(values, field.t0)


def composed_power(
    series_set,
    band: tuple = CIRCANNUAL_BAND,
    alpha_level: float = DEFAULT_ALPHA_LEVEL,
) -> ComposedPower:
    """Week-by-week count of regions with significant band power.

    Each region is tested as `fill_gaps`, `detrend`, `cwt` and
    `band_power` test one series, but transformed at the band's scales
    only, COMPOSED_BLOCK_ROWS regions at a time.  c_b[t] is the number of
    regions significant at week t, regions_valid[t] how many had a
    COI-valid band there.  A bad band fails before any region is read and
    a bad alpha level at the first block's band power; regions that are
    too gappy or flat after detrending are listed in `rejected`; fewer
    than two analyzable regions is an error.
    """
    n_regions, n_weeks = series_set.counts.shape
    if n_weeks < MIN_DETREND_LENGTH:
        raise ValueError(f"composed power needs at least {MIN_DETREND_LENGTH} weeks")
    scales = _scale_grid(DEFAULT_S0, band)
    scales = scales[_band_scales(scales, band)]
    values = series_set.counts.astype(float)
    reasons: dict[int, str] = {}
    for i in range(n_regions):
        try:
            values[i] = fill_gaps(values[i])
        except ValueError as exc:
            reasons[i] = str(exc)
    filled = np.setdiff1d(np.arange(n_regions), np.fromiter(reasons, dtype=np.intp))
    anomalies, flat = _standardized_residuals(values[filled])
    reasons.update(dict.fromkeys(filled[flat].tolist(), FLAT_SERIES))
    kept, anomalies = filled[~flat], anomalies[~flat]
    if kept.size < 2:
        raise ValueError("fewer than two regions could be analyzed")
    masks = []
    for a in range(0, kept.size, COMPOSED_BLOCK_ROWS):
        block = anomalies[a:a + COMPOSED_BLOCK_ROWS]
        bp = band_power(_wavelet_field(block, scales), band, alpha_level)
        masks.append(bp.significant)
    masks = np.concatenate(masks)
    return ComposedPower(
        c_b=masks.sum(axis=0).astype(np.int64),
        regions_valid=kept.size * bp.coi_valid.astype(np.int64),
        week_starts=series_set.week_starts.copy(),
        region_ids=series_set.region_ids[kept],
        masks=masks,
        rejected=[(int(series_set.region_ids[i]), reasons[i]) for i in sorted(reasons)],
    )


def significant_durations(composed: ComposedPower):
    """Maximal runs of consecutive significant weeks, per region.

    Returns (region ids, start week indices, lengths) as arrays, one
    entry per run, sorted by region and start week.  COI-invalid weeks
    are never significant, so runs terminate at the cone boundary by
    construction.
    """
    masks = np.asarray(composed.masks, dtype=np.int8)
    edges = np.diff(np.pad(masks, ((0, 0), (1, 1))), axis=-1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]
    return composed.region_ids[rows], starts, ends - starts
