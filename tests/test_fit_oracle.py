"""The variable-projection fit against scipy.optimize.curve_fit as an oracle.

The reference runs Levenberg-Marquardt from the same starts as the package
(the grid-search minima or the caller's hint, with the linear parameters
from lstsq at that frequency), keeps the lowest chi-square and reports
the covariance with absolute sigmas. Its tolerances are far tighter than
scipy's defaults, so that its own stopping error (up to ~1e-3 standard
errors at the defaults) does not enter the comparison.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning
from scipy.optimize import curve_fit as scipy_curve_fit

from conftest import CONFIG_DIR, lstsq_tone_fit

from sgslab import cli, sgs_pipeline
from sgslab.sgs_pipeline import (
    OVERSAMPLE,
    SIGMA_FLOOR,
    FitError,
    TimeSeries,
    chebyshev_times,
    fit_gap,
    frequency_grid_search,
)

SHIPPED = sorted(path.stem for path in CONFIG_DIR.glob("*.yaml"))


def _model(t, c, rho, omega, theta):
    return c + rho * np.cos(omega * t + theta)


def scipy_fit(series, freq_hint=None):
    """(popt, pcov) of the reference fit, canonical like FitResult."""
    times, values = series.times, series.values
    sigmas = np.maximum(series.sigmas, SIGMA_FLOOR)
    starts = [freq_hint] if freq_hint is not None else frequency_grid_search(series).candidates
    best = None
    for omega0 in starts:
        (c0, a0, b0), _ = lstsq_tone_fit(times, values, 1.0 / sigmas, omega0)
        p0 = [c0, math.hypot(a0, b0), omega0, math.atan2(-b0, a0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = scipy_curve_fit(
                _model, times, values, p0=p0, sigma=sigmas, absolute_sigma=True,
                maxfev=20000, ftol=1e-15, xtol=1e-15, gtol=1e-15,
            )
        resid = (_model(times, *popt) - values) / sigmas
        if best is None or resid @ resid < best[0]:
            best = (resid @ resid, popt, pcov)
    _, (c, rho, omega, theta), pcov = best
    flip = np.diag([1.0, math.copysign(1.0, rho), math.copysign(1.0, omega),
                    math.copysign(1.0, omega)])
    theta = (theta + (math.pi if rho < 0 else 0.0)) * math.copysign(1.0, omega)
    popt = np.array([c, abs(rho), abs(omega), theta % (2.0 * math.pi)])
    return popt, flip @ pcov @ flip


def assert_matches_reference(fit, series, freq_hint=None, cov_rtol=1e-4):
    popt, pcov = scipy_fit(series, freq_hint)
    errs = np.sqrt(np.diag(pcov))
    assert abs(fit.gap - popt[2]) <= 1e-3 * fit.gap_err
    assert abs(fit.rho - popt[1]) <= 1e-3 * fit.rho_err
    assert abs(fit.offset - popt[0]) <= 1e-3 * fit.offset_err
    assert fit.gap_err == pytest.approx(errs[2], rel=1e-2)
    # every entry within cov_rtol of the scale its correlation is measured in
    np.testing.assert_array_less(
        np.abs(fit.covariance - pcov), cov_rtol * np.outer(errs, errs)
    )


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_match_scipy(name, tmp_path, monkeypatch):
    fits = []

    def recording_fit_gap(series, freq_hint=None):
        fit = fit_gap(series, freq_hint=freq_hint)
        fits.append((series, freq_hint, fit))
        return fit

    monkeypatch.setattr(cli, "fit_gap", recording_fit_gap)
    config = CONFIG_DIR / f"{name}.yaml"
    study = cli.load_config(config).study
    for seed in (7, 8, 9):
        out = tmp_path / str(seed)
        assert cli.main([study, "--config", str(config), "--out", str(out),
                         "--seed", str(seed)]) == 0
    assert fits
    for series, freq_hint, fit in fits:
        popt, pcov = scipy_fit(series, freq_hint)
        assert abs(fit.gap - popt[2]) <= 1e-3 * fit.gap_err
        assert fit.gap_err == pytest.approx(math.sqrt(pcov[2, 2]), rel=1e-2)


def _grid_step(times):
    return math.pi / ((times[-1] - times[0]) * OVERSAMPLE)


@pytest.mark.parametrize("seed", range(12))
def test_random_tone_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.4, 4.0)
    times = chebyshev_times(25, 0.0, rng.uniform(3.0, 6.0) * 2 * math.pi / omega)
    sigma = rng.uniform(0.005, 0.05)
    values = (rng.uniform(-0.3, 0.3) + rng.uniform(0.2, 0.8)
              * np.cos(omega * times + rng.uniform(0, 2 * math.pi))
              + rng.normal(0.0, sigma, times.shape))
    series = TimeSeries(times, values, np.full_like(times, sigma))
    fit = fit_gap(series)
    assert fit.gap == pytest.approx(omega, abs=5 * fit.gap_err)
    assert_matches_reference(fit, series)


@pytest.mark.parametrize("seed", range(6))
def test_two_tone_leakage_matches_scipy(seed):
    # a weaker neighbouring tone, like the leakage out of the two target
    # levels, pulls every fit off the main tone by the same amount
    rng = np.random.default_rng(100 + seed)
    times = chebyshev_times(25, 0.0, 12.0)
    values = (0.1 + 0.5 * np.cos(1.3 * times + rng.uniform(0, 2 * math.pi))
              + 0.15 * np.cos(rng.uniform(1.8, 2.6) * times + rng.uniform(0, 2 * math.pi))
              + rng.normal(0.0, 0.01, times.shape))
    series = TimeSeries(times, values, np.full_like(times, 0.01))
    fit = fit_gap(series)
    assert fit.reduced_chi_square > 2.0  # the single tone does not describe the series
    assert_matches_reference(fit, series)


@pytest.mark.parametrize("offset_steps", [1.5, -1.5])
def test_freq_hint_off_grid_matches_scipy(offset_steps):
    times = chebyshev_times(25, 0.0, 9.0)
    rng = np.random.default_rng(7)
    values = 0.2 + 0.5 * np.cos(1.3 * times + 0.7) + rng.normal(0.0, 0.02, times.shape)
    series = TimeSeries(times, values, np.full_like(times, 0.02))
    hint = 1.3 + offset_steps * _grid_step(times)
    fit = fit_gap(series, freq_hint=hint)
    assert fit.gap == pytest.approx(fit_gap(series).gap, abs=1e-4 * fit.gap_err)
    assert_matches_reference(fit, series, freq_hint=hint)


@pytest.mark.parametrize("theta", [-3.0, -0.4, 0.0, 1.2, 3.1, 4.5, 6.2, 8.0])
@pytest.mark.parametrize("rho", [0.4, -0.4])
def test_canonical_parameters(theta, rho):
    times = chebyshev_times(25, 0.0, 9.0)
    values = 0.1 + rho * np.cos(1.7 * times + theta)
    series = TimeSeries(times, values, np.full_like(times, 0.01))
    fit = fit_gap(series)
    assert fit.gap > 0
    assert fit.rho >= 0
    assert 0.0 <= fit.theta < 2 * math.pi
    np.testing.assert_allclose(fit.predict(times), values, atol=1e-9)
    # the planted tone, written with rho >= 0
    planted_theta = theta + (math.pi if rho < 0 else 0.0)
    np.testing.assert_allclose([fit.offset, fit.rho, fit.gap], [0.1, abs(rho), 1.7], atol=1e-9)
    assert abs((fit.theta - planted_theta + math.pi) % (2 * math.pi) - math.pi) <= 1e-9


def test_angle_that_rounds_to_two_pi_is_zero():
    # atan2 of a tiny negative sine component is -1e-17, and -1e-17 % 2pi == 2pi
    popt = sgs_pipeline._tone_params(1.0, np.array([0.0, 1.0, 1e-17]))
    assert popt[3] == 0.0


@pytest.mark.parametrize("freq_hint", [None, 1.3])
def test_flat_series_raises_fit_error(freq_hint):
    times = chebyshev_times(25, 0.0, 9.0)
    series = TimeSeries(times, np.full_like(times, -0.2), np.zeros_like(times))
    with pytest.raises(FitError, match="standard error"):
        fit_gap(series, freq_hint=freq_hint)
    _, pcov = sgs_pipeline.curve_fit(
        times, series.values, np.full_like(times, SIGMA_FLOOR), 1.3, _grid_step(times)
    )
    assert np.all(np.isinf(pcov))
