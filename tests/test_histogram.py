import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import pnrcal.histogram as hg
from pnrcal.errors import DomainError, FitFailureError
from pnrcal.histogram import (
    AmplitudeHistogram,
    GaussianPeak,
    build_histogram,
    comb_counts,
    count_photons,
    extract_counts,
    fit_mixture,
    gaussian_cells,
    load_histogram_csv,
    save_histogram_csv,
)
from pnrcal.simulator import ExperimentConfig, simulate_histograms, simulate_run


def exact_histogram(peaks, lo=-1.0, hi=4.0, n_bins=250):
    """Histogram whose bin counts equal the expected contents of the mixture:
    each peak holds A sigma sqrt(2 pi) / w events."""
    edges = np.linspace(lo, hi, n_bins + 1)
    events = np.array([p.area for p in peaks]) / (edges[1] - edges[0])
    masses = gaussian_cells(edges, np.array([p.center for p in peaks]),
                            np.array([p.sigma for p in peaks]))
    return AmplitudeHistogram(bin_edges=edges, counts=(events @ masses)[1:-1])


def noisy_two_peak(seed=7, n0=200_000, n1=4_000):
    rng = np.random.default_rng(seed)
    samples = np.concatenate(
        [rng.normal(0.0, 0.08, n0), rng.normal(1.0, 0.09, n1)]
    )
    return build_histogram(samples, n_bins=160, amp_range=(-0.5, 1.5))


class TestBuildHistogram:
    def test_small_example(self):
        h = build_histogram([0.5, 0.5, 1.5], n_bins=2, amp_range=(0.0, 2.0))
        assert h.counts.tolist() == [2.0, 1.0]
        assert h.bin_width == 1.0
        assert h.n_underflow == 0 and h.n_overflow == 0

    def test_overflow_tracking(self):
        h = build_histogram([-1.0, 0.5, 3.0, 4.0], n_bins=4, amp_range=(0.0, 2.0))
        assert h.n_underflow == 1 and h.n_overflow == 2
        assert h.counts.sum() == 1.0

    def test_gaussian_bin_contents(self):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        samples = rng.normal(1.0, 0.1, n)
        h = build_histogram(samples, n_bins=50, amp_range=(0.5, 1.5))
        # independent oracle: exact normal bin probabilities
        cdf = norm.cdf(h.bin_edges, loc=1.0, scale=0.1)
        expected = n * np.diff(cdf)
        assert np.all(np.abs(h.counts - expected) <= 5.0 * np.sqrt(expected + 1.0))

    def test_non_uniform_edges_rejected(self):
        with pytest.raises(DomainError):
            AmplitudeHistogram(bin_edges=np.array([0.0, 1.0, 3.0]), counts=np.array([1.0, 1.0]))

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            build_histogram([1.0], n_bins=10, amp_range=(2.0, 1.0))
        with pytest.raises(DomainError):
            build_histogram([1.0], n_bins=0, amp_range=(0.0, 1.0))


class TestFitMixture:
    def test_single_exact_gaussian(self):
        truth = GaussianPeak(amplitude=100.0, center=1.0, sigma=0.1)
        h = exact_histogram([truth], lo=0.0, hi=2.0, n_bins=100)
        fit = fit_mixture(h, n_peaks=1)
        p = fit.peaks[0]
        assert abs(p.amplitude - 100.0) < 1e-6 * 100.0
        assert abs(p.center - 1.0) < 1e-6
        assert abs(p.sigma - 0.1) < 1e-6 * 0.1
        assert fit.quality.reduced_chi_square < 1e-12

    def test_three_peak_recovery(self):
        truth = [
            GaussianPeak(5000.0, 0.0, 0.08),
            GaussianPeak(50.0, 1.0, 0.09),
            GaussianPeak(1.0, 2.0, 0.10),
        ]
        h = exact_histogram(truth)
        fit = fit_mixture(h, n_peaks=3)
        for got, want in zip(fit.peaks, truth):
            assert abs(got.center - want.center) < 1e-6
            assert abs(got.sigma - want.sigma) < 1e-6
            assert abs(got.amplitude - want.amplitude) < 1e-6 * want.amplitude

    def test_idempotence_poisson(self):
        # LM stops where the deviance is flat to rounding, and the
        # Gauss-Newton finish takes the fit on to the optimum, so a restart
        # from the solution reproduces it
        cases = [(noisy_two_peak(), 2)] + [(low_count_histogram(seed), 4) for seed in range(200)]
        for h, n_peaks in cases:
            fit = fit_mixture(h, n_peaks=n_peaks)
            refit = fit_mixture(h, n_peaks=n_peaks, init=fit.peaks)
            a = fit.parameters
            b = refit.parameters
            assert np.all(np.abs(a - b) <= 1e-8 * np.abs(a))

    def test_init_permutation_safety(self):
        h = noisy_two_peak()
        fit = fit_mixture(h, n_peaks=2)
        reversed_init = list(reversed(fit.peaks))
        refit = fit_mixture(h, n_peaks=2, init=reversed_init)
        centers = [p.center for p in refit.peaks]
        assert centers == sorted(centers)
        assert np.allclose(refit.parameters, fit.parameters, rtol=1e-8)

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_amplitude_unit_invariance(self, scale):
        h = noisy_two_peak()
        scaled = AmplitudeHistogram(bin_edges=h.bin_edges * scale, counts=h.counts)
        fit = fit_mixture(h, n_peaks=2)
        sfit = fit_mixture(scaled, n_peaks=2)
        for p, sp in zip(fit.peaks, sfit.peaks):
            assert abs(sp.center - p.center * scale) <= 1e-9 * max(abs(p.center * scale), scale)
            assert abs(sp.sigma - p.sigma * scale) <= 1e-9 * p.sigma * scale
        c = extract_counts(fit, h.bin_width)
        sc = extract_counts(sfit, scaled.bin_width)
        assert np.allclose(c.counts, sc.counts, rtol=1e-9)

    def test_negative_sigma_rejected_at_construction(self):
        with pytest.raises(DomainError):
            GaussianPeak(1000.0, 0.0, -0.08)
        h = noisy_two_peak()
        fit = fit_mixture(h, n_peaks=2)
        assert all(p.sigma > 0 for p in fit.peaks)

    def test_auto_seed_matches_explicit(self):
        h = noisy_two_peak()
        auto = fit_mixture(h, n_peaks=2)
        init = [GaussianPeak(9000.0, 0.05, 0.1), GaussianPeak(80.0, 0.95, 0.1)]
        manual = fit_mixture(h, n_peaks=2, init=init)
        assert np.allclose(auto.parameters, manual.parameters, rtol=1e-6)

    @pytest.mark.parametrize(
        "patch, first",
        [
            # a noise bump 2 sigma out on the tall peak's flank: higher than
            # the second peak (60) but only ~36 counts above its valley
            ({26: 285.0}, 2.05),
            # a flat top with two equal maxima 3 bins apart
            ({19: 1000.0, 20: 950.0, 21: 950.0, 22: 1000.0}, 1.95),
        ],
    )
    def test_seeds_rank_by_prominence_not_height(self, patch, first):
        tall = exact_histogram(
            [GaussianPeak(1000.0, 2.05, 0.3), GaussianPeak(60.0, 6.05, 0.3)],
            lo=0.0, hi=10.0, n_bins=100,
        )
        counts = tall.counts.copy()
        counts[list(patch)] = list(patch.values())
        h = AmplitudeHistogram(bin_edges=tall.bin_edges, counts=counts)
        seeds = hg._seed_from_maxima(h, 2).reshape(-1, 3)
        assert np.allclose(seeds[:, 1], [first, 6.05])

    def test_degenerate_peak_raises(self):
        # five peaks on one Gaussian: the surplus components collapse to
        # sub-bin spikes or run off the histogram
        rng = np.random.default_rng(2)
        h = build_histogram(rng.normal(0.0, 0.08, 50_000), 120, (-0.5, 0.5))
        with pytest.raises(FitFailureError, match="degenerate peak"):
            fit_mixture(h, n_peaks=5)

    def test_too_many_peaks_rejected(self):
        # a noise-free single Gaussian has exactly one local maximum, so
        # auto-seeding three peaks must fail
        h = exact_histogram([GaussianPeak(100.0, 1.0, 0.1)], lo=0.0, hi=2.0,
                            n_bins=100)
        with pytest.raises(FitFailureError, match="found 1 candidate peaks") as err:
            fit_mixture(h, n_peaks=3)
        assert err.value.keys == {"reason": "seed"}

    def test_non_finite_start_raises_fit_failure(self):
        # an infinite amplitude makes every residual inf or NaN, and a zero
        # one starts the log count at -inf: a fit failure (exit 3 in
        # `calibrate`), not a bare ValueError or a peak stuck at zero
        h = noisy_two_peak()
        for amplitude in (math.inf, 0.0):
            with pytest.raises(FitFailureError, match="not finite at the start") as err:
                fit_mixture(h, 1, init=[GaussianPeak(amplitude, 0.0, 0.1)])
            assert err.value.keys == {"reason": "seed"}

    def test_covariance_shape_and_psd(self):
        h = noisy_two_peak()
        fit = fit_mixture(h, n_peaks=2)
        assert fit.covariance.shape == (6, 6)
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert np.all(np.linalg.eigvalsh(fit.covariance) > -1e-12)


class _Captured(Exception):
    pass


def solver_problem(monkeypatch, fit, *args):
    """The residuals, Jacobian and start point that `fit(*args)` hands to
    Levenberg-Marquardt."""
    got = {}

    def capture(residuals, jac, start):
        got.update(residuals=residuals, jac=jac, start=start)
        raise _Captured

    monkeypatch.setattr(hg, "_levenberg_marquardt", capture)
    with pytest.raises(_Captured):
        fit(*args)
    return got["residuals"], got["jac"], got["start"]


class TestPoissonFitJacobian:
    """The engine's analytic Jacobian against central differences of its
    residuals, for the mixture and the comb models, at the start point and
    at a point off it."""

    CASES = {
        "mixture 2 peaks": lambda: (fit_mixture, noisy_two_peak(), 2),
        "mixture 4 peaks": lambda: (fit_mixture, low_count_histogram(0), 4),
        "comb": lambda: (comb_counts, comb_histogram((1e6, 5000.0, 50.0), 0.14, rounded=True), 3),
        # events past the comb in the overflow: a count without a peak
        "comb past": lambda: (comb_counts, dataclasses.replace(
            comb_histogram((1e6, 5000.0, 400.0), 0.08, rounded=True, lo=-0.15, hi=2.1),
            n_overflow=80), 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_central_differences(self, monkeypatch, case):
        fit, hist, n = self.CASES[case]()
        residuals, jac, start = solver_problem(monkeypatch, fit, hist, n)
        points = [start, start + 0.002 * np.sin(np.arange(start.size) + 1.0)]
        if fit is fit_mixture:
            # LM visits negative widths; the model is even in them
            points.append(start * np.repeat([1.0, -1.0, 1.0], n))
        for p in points:
            analytic = jac(p)
            numeric = np.empty_like(analytic)
            for j in range(p.size):
                step = 1e-6 * max(abs(p[j]), 1.0)
                up, down = p.copy(), p.copy()
                up[j] += step
                down[j] -= step
                numeric[:, j] = (residuals(up) - residuals(down)) / (2.0 * step)
            # an upper-tail cell's mass is a difference of two CDF values near
            # one, whose rounding the differences amplify to a few 1e-7
            scale = np.abs(analytic).max(axis=0)
            assert np.all(np.abs(analytic - numeric) <= 1e-5 * scale)


class TestQuality:
    def test_perfect_model_zero_ratio(self):
        truth = GaussianPeak(100.0, 1.0, 0.1)
        h = exact_histogram([truth], lo=0.0, hi=2.0, n_bins=100)
        fit = fit_mixture(h, n_peaks=1)
        assert fit.quality.ratio < 1e-12

    def test_underfitted_model_much_worse(self):
        h = noisy_two_peak(n0=50_000, n1=20_000)
        good = fit_mixture(h, n_peaks=2)
        bad = fit_mixture(
            h, n_peaks=1,
            init=[GaussianPeak(h.counts.max(), 0.3, 0.3)],
        )
        assert bad.quality.ratio > 10.0 * good.quality.ratio

    def test_dof_guard(self):
        edges = np.linspace(0.0, 1.0, 4)
        h = AmplitudeHistogram(bin_edges=edges, counts=np.array([1.0, 5.0, 1.0]))
        with pytest.raises(DomainError):
            hg._quality(h.counts, h, n_peaks=2)


class TestExtractCounts:
    def test_unit_area(self):
        fit_peaks = [GaussianPeak(1.0, 0.0, 1.0 / math.sqrt(2 * math.pi))]
        fit = hg.MixtureFit(
            peaks=tuple(fit_peaks),
            covariance=np.zeros((3, 3)),
            quality=hg.FitQuality(0.0, 1.0, 0.0, 1),
        )
        cv = extract_counts(fit, bin_width=1.0)
        assert abs(cv.counts[0] - 1.0) < 1e-12
        cv2 = extract_counts(fit, bin_width=2.0)
        assert abs(cv2.counts[0] - 0.5) < 1e-12

    def test_counts_match_sample_sizes(self):
        rng = np.random.default_rng(11)
        n0, n1 = 300_000, 3_000
        samples = np.concatenate(
            [rng.normal(0.0, 0.08, n0), rng.normal(1.0, 0.09, n1)]
        )
        h = build_histogram(samples, n_bins=160, amp_range=(-0.5, 1.5))
        fit = fit_mixture(h, n_peaks=2)
        cv = extract_counts(fit, h.bin_width)
        assert abs(cv.counts[0] - n0) < 5.0 * math.sqrt(n0)
        assert abs(cv.counts[1] - n1) < 5.0 * math.sqrt(n1)
        # claimed uncertainties should be in the Poisson ballpark
        assert 0.5 * math.sqrt(n0) < cv.uncertainties[0] < 2.0 * math.sqrt(n0)
        assert 0.5 * math.sqrt(n1) < cv.uncertainties[1] < 2.0 * math.sqrt(n1)


def comb_histogram(events, sigma, rounded=False, lo=-0.6, hi=2.6, n_bins=160):
    """Expected contents of the bins and of under- and overflow for
    photon numbers 0, 1, ... at 0, 1, ... with width sigma, holding
    `events` each; `rounded` rounds every cell to whole events."""
    edges = np.linspace(lo, hi, n_bins + 1)
    n = np.arange(len(events), dtype=float)
    cells = np.asarray(events, dtype=float) @ gaussian_cells(edges, n, np.full(n.size, sigma))
    if rounded:
        cells = np.round(cells)
    return AmplitudeHistogram(edges, cells[1:-1], n_underflow=round(cells[0]),
                              n_overflow=round(cells[-1]))


class TestCombCounts:
    def test_unfolds_spill_over(self):
        # at 7.1 sigma spacing about 180 n=0 events fall within 0.5 of n=1
        events = (1e6, 5000.0, 50.0)
        h = comb_histogram(events, 0.14)
        in_n1_window = h.counts[(h.bin_centers > 0.5) & (h.bin_centers < 1.5)].sum()
        assert in_n1_window - events[1] > 100
        c, d = comb_counts(h, 3)
        assert np.allclose(c.counts, events, rtol=1e-5)
        assert np.allclose(c.uncertainties**2, np.diag(c.covariance), rtol=1e-12)
        assert np.array_equal(c.covariance, c.covariance.T)
        # the Poisson variances of the counts, within the spill-over's share
        assert np.allclose(np.diag(c.covariance), events, rtol=0.01)
        assert abs(d["x0"]) < 1e-5 and abs(d["g"] - 1.0) < 1e-5
        assert abs(d["sigma0"] - 0.14) < 1e-5 and abs(d["sigma1"] - 0.14) < 1e-5
        assert d["deviance_per_dof"] < 1e-4 and d["evaluations"] > 0

    def test_empty_window_has_zero_count_and_variance(self):
        h = comb_histogram((1e6, 5000.0, 0.0), 0.08, rounded=True)
        assert not h.counts[h.bin_centers > 1.5].any() and h.n_overflow == 0
        c, _ = comb_counts(h, 3)
        assert c.counts[2] == 0.0
        assert not c.covariance[2].any() and not c.covariance[:, 2].any()

    def test_under_and_overflow_are_fitted_cells(self):
        # 3 % of n=0 lies below the histogram and 11 % of n=2 above it
        events = (1e6, 5000.0, 400.0)
        h = comb_histogram(events, 0.08, rounded=True, lo=-0.15, hi=2.1)
        assert h.n_underflow > 30_000 and h.n_overflow > 40
        c, _ = comb_counts(h, 3)
        assert np.all(np.abs(c.counts - events) < c.uncertainties)
        # overflow events that no photon number of the comb explains are
        # counted with the last one
        past = AmplitudeHistogram(h.bin_edges, h.counts, h.n_underflow, h.n_overflow + 30)
        c_past, _ = comb_counts(past, 3)
        assert np.allclose(c_past.counts, c.counts + [0.0, 0.0, 30.0], rtol=1e-6)
        assert c_past.uncertainties[2] > c.uncertainties[2]

    def test_sparse_photon_number_count_not_negative(self):
        # the n=2 window holds 0.3 events against 0.9 spilled from n=1,
        # where the window counts were unfolded to a negative count
        off = comb_histogram((1e6, 5000.0, 0.0), 0.14)
        counts = np.where(off.bin_centers > 1.5, 0.0, off.counts)
        counts[np.argmin(np.abs(off.bin_centers - 2.0))] = 0.3
        off = AmplitudeHistogram(off.bin_edges, counts, off.n_underflow, 0)
        _, c, _ = count_photons(comb_histogram((1e6, 5000.0, 50.0), 0.14), off, 3)
        assert 0.0 < c.counts[2] and abs(c.counts[2] - 0.3) < c.uncertainties[2]

    def test_failure_raised_with_side(self):
        # one peak: nothing seeds n=1 on the OFF side
        single = comb_histogram((1000.0,), 0.08, rounded=True)
        with pytest.raises(FitFailureError, match="^off no counts 4 sigma above") as err:
            count_photons(comb_histogram((1e6, 5000.0, 40.0), 0.08, rounded=True), single, 3)
        assert err.value.keys == {"side": "off", "reason": "seed"}

    def test_trailing_windows_empty_on_both_sides_dropped(self):
        empty = comb_histogram((1e6, 5000.0, 0.0), 0.08, rounded=True)
        full = comb_histogram((1e6, 5000.0, 40.0), 0.08, rounded=True)
        on, off, diagnostics = count_photons(empty, empty, 3)
        assert on.counts.size == off.counts.size == 2
        assert on.covariance.shape == (2, 2)
        assert set(diagnostics) == {"on", "off"}
        on, off, _ = count_photons(full, empty, 3)
        assert on.counts.size == off.counts.size == 3 and off.counts[2] == 0.0

    def test_n1_seeded_above_a_tall_n0(self):
        # the README [experiment] at 40k pulses, first seed of root 7:
        # seeding by prominence puts both peaks inside n=0
        cfg = dataclasses.replace(PAPER_SCALE, n_pulses=40_000, seed=1201125462)
        on, _, _ = simulate_histograms(cfg, 200, (-0.48, 2.48))
        assert all(abs(p.center) < 0.01 for p in fit_mixture(on, 2).peaks)
        _, d = comb_counts(on, 3)
        assert abs(d["x0"]) < 0.01 and abs(d["g"] - 1.0) < 0.01

    def test_no_window_rejected(self):
        with pytest.raises(DomainError):
            comb_counts(noisy_two_peak(), 0)


# ACCEPTANCE 7a runs, and the README [experiment] at paper scale
LOW_COUNT = ExperimentConfig(
    gamma_true=0.3, xi_true=0.95, herald_prob=0.8, background_mean=0.3,
    peak_centers=(0.0, 1.0, 2.0, 3.0), peak_widths=(0.08,) * 4,
    n_pulses=40_000, seed=0,
)
PAPER_SCALE = ExperimentConfig(
    gamma_true=0.00709, xi_true=0.98794, herald_prob=0.5,
    background_mean=0.00286, peak_centers=(0.0, 1.0, 2.0, 3.0),
    peak_widths=(0.08,) * 4, n_pulses=2_200_000, seed=42,
)


@functools.cache
def low_count_histogram(seed):
    """The ON histogram of an ACCEPTANCE 7a run: 150 bins over n = 0-3."""
    run = simulate_run(dataclasses.replace(LOW_COUNT, seed=seed))
    return build_histogram(run.on_amplitudes, 150, (-0.4, 3.6))


def paper_scale_sides(seed):
    """A closure seed's ON and OFF histograms (200 bins over n = 0-2 plus
    six widths) and its init: 3 peaks at the true centres and widths,
    amplitude the count in the centre's bin."""
    lo, hi = -0.48, 2.48
    cfg = dataclasses.replace(PAPER_SCALE, seed=seed)
    on, off, _ = simulate_histograms(cfg, 200, (lo, hi))
    for hist in (on, off):
        init = [
            GaussianPeak(max(float(hist.counts[int((c - lo) / hist.bin_width)]), 1.0),
                         c, 0.08)
            for c in (0.0, 1.0, 2.0)
        ]
        yield hist, init


def fit_digest(fit):
    """sha256 of the parameters, covariance and quality, bit for bit."""
    q = fit.quality
    blob = np.concatenate([
        fit.parameters,
        fit.covariance.ravel(),
        [q.reduced_chi_square, q.reduced_total_sum_of_squares, q.ratio,
         q.degrees_of_freedom],
    ])
    return hashlib.sha256(blob.tobytes()).hexdigest()


def golden_fits():
    """{case: MixtureFit} for every fit the golden test freezes."""
    fits = {}
    for seed in (0, 1, 2):
        fits[f"7a seed {seed}"] = fit_mixture(low_count_histogram(seed), 4)
    hist, init = next(paper_scale_sides(42))
    fits["readme on"] = fit_mixture(hist, 3, init=init)
    return fits


class TestFitGolden:
    """Fit results and the README seed's comb counts frozen bit for bit,
    so that a faster model, Jacobian or solver call that changes any
    iterate shows.  Frozen with numpy 2.4.6 and scipy 1.17.1
    on x86-64 (OpenBLAS); another build of either may move the last bits
    and need a refreeze.  A FITS entry is the sha256 of `fit_digest` and
    the quality ratio in `float.hex`; a COMB entry is the counts in
    `float.hex` and the sha256 of their covariance."""

    FITS = {
        "7a seed 0": ("f38cd7493a22a5c8f8b125e228c45753c024f718e9348278ef3db6713a253a3f",
                      "0x1.4617d5e0db21ep-18"),
        "7a seed 1": ("82227ab4288e5147f27508b67fba2f338918edf0dfedd22a8d8d29227e8dd09c",
                      "0x1.1156ca2b866cfp-18"),
        "7a seed 2": ("3ca2feed6d2236a941143e7decad6e7b60d09e984e6e83efdec4f6f1123c1201",
                      "0x1.32aa6e92e7c0fp-18"),
        "readme on": ("4d3c629fa6dcf25a34ec25c80dd65d289df2f8414a93e5f53948fa0bc7537ad3",
                      "0x1.288c2e499f3bfp-28"),
    }
    COMB = {
        "on": (
            ["0x1.09fc100000016p+20", "0x1.520ffffea7251p+13", "0x1.dffffa31eadcbp+4"],
            "e6536c58dec66f9f05e174755d1de15d67b071e9f22db1e372d0263ba0f78155",
        ),
        "off": (
            ["0x1.0bba3fffffff5p+20", "0x1.7f200000cf1ddp+11", "0x1.0000c517b4cdep+1"],
            "41f46b4fbca29db7e3a9395ec32fc80c1ee8ba0417fe92a5878bc616b1b1d663",
        ),
    }

    def test_fits(self):
        got = {
            name: (fit_digest(fit), fit.quality.ratio.hex())
            for name, fit in golden_fits().items()
        }
        assert got == self.FITS
        # the README OFF side holds 2 events at n=2, which fit narrower than a bin
        _, (off, init) = paper_scale_sides(42)
        with pytest.raises(FitFailureError, match="peak 2 .* narrower than one bin") as err:
            fit_mixture(off, 3, init=init)
        assert err.value.keys == {"reason": "degenerate"}

    def test_comb_counts(self):
        on, off = (hist for hist, _ in paper_scale_sides(42))
        got = {
            side: ([v.hex() for v in c.counts],
                   hashlib.sha256(c.covariance.tobytes()).hexdigest())
            for side, c in zip(("on", "off"), count_photons(on, off, 3)[:2])
        }
        assert got == self.COMB


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        h = noisy_two_peak()
        path = tmp_path / "hist.csv"
        save_histogram_csv(h, path)
        loaded = load_histogram_csv(path)
        assert np.allclose(loaded.bin_edges, h.bin_edges, rtol=1e-12)
        assert np.array_equal(loaded.counts, h.counts)

    def test_non_uniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in (
            "bin_center,count\n0.0,1\n1.0,2\n3.0,1\n",
            "bin_center,count\n0.0,1\n1.0,abc\n2.0,1\n",
        ):
            path.write_text(text)
            with pytest.raises(DomainError):
                load_histogram_csv(path)
