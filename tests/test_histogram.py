import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import pnrcal.histogram as hg
from pnrcal.errors import DomainError, FitFailureError, InitializationError
from pnrcal.histogram import (
    AmplitudeHistogram,
    GaussianPeak,
    build_histogram,
    extract_counts,
    fit_mixture,
    gaussian_sum,
    load_histogram_csv,
    robust_peak_counts,
    save_histogram_csv,
)


def exact_histogram(peaks, lo=-1.0, hi=4.0, n_bins=250):
    """Histogram whose bin counts equal the mixture evaluated at bin centers."""
    edges = np.linspace(lo, hi, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    params = np.concatenate([[p.amplitude, p.center, p.sigma] for p in peaks])
    counts = gaussian_sum(centers, params)
    return AmplitudeHistogram(bin_edges=edges, counts=counts)


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
        fit = fit_mixture(h, n_peaks=1, weighting="none")
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
        fit = fit_mixture(h, n_peaks=3, weighting="none")
        for got, want in zip(fit.peaks, truth):
            assert abs(got.center - want.center) < 1e-6
            assert abs(got.sigma - want.sigma) < 1e-6
            assert abs(got.amplitude - want.amplitude) < 1e-6 * want.amplitude

    def test_idempotence_unweighted(self):
        h = noisy_two_peak()
        fit = fit_mixture(h, n_peaks=2, weighting="none")
        refit = fit_mixture(h, n_peaks=2, init=fit.peaks, weighting="none")
        a = fit.parameters
        b = refit.parameters
        assert np.all(np.abs(a - b) <= 1e-10 * np.abs(a))

    def test_idempotence_poisson(self):
        # the reweighted objective is solved as a fixed-point iteration, so a
        # restart reproduces the solution to the solver's flat-valley
        # resolution rather than exactly
        h = noisy_two_peak()
        fit = fit_mixture(h, n_peaks=2)
        refit = fit_mixture(h, n_peaks=2, init=fit.peaks)
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
        with pytest.raises((InitializationError, FitFailureError)):
            fit_mixture(h, n_peaks=3)

    def test_covariance_shape_and_psd(self):
        h = noisy_two_peak()
        fit = fit_mixture(h, n_peaks=2)
        assert fit.covariance.shape == (6, 6)
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert np.all(np.linalg.eigvalsh(fit.covariance) > -1e-12)


class TestQuality:
    def test_perfect_model_zero_ratio(self):
        truth = GaussianPeak(100.0, 1.0, 0.1)
        h = exact_histogram([truth], lo=0.0, hi=2.0, n_bins=100)
        fit = fit_mixture(h, n_peaks=1, weighting="none")
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
        params = np.array([5.0, 0.5, 0.2, 1.0, 0.8, 0.1])
        with pytest.raises(DomainError):
            hg._quality(params, h, n_peaks=2)


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


class TestRobustPeakCounts:
    def test_degenerate_third_peak_truncated(self):
        rng = np.random.default_rng(3)
        samples = np.concatenate(
            [rng.normal(0.0, 0.08, 100_000), rng.normal(1.0, 0.09, 800)]
        )
        h = build_histogram(samples, n_bins=200, amp_range=(-0.5, 2.5))
        init = [
            GaussianPeak(4000.0, 0.0, 0.08),
            GaussianPeak(30.0, 1.0, 0.09),
            GaussianPeak(1.0, 2.0, 0.10),
        ]
        cv, fit, used = robust_peak_counts(h, n_peaks=3, init=init)
        assert len(cv.counts) == 3
        assert used <= 3
        if used < 3:
            assert cv.counts[used:].tolist() == [0.0] * (3 - used)
            assert cv.uncertainties[used:].tolist() == [0.0] * (3 - used)

    def test_runaway_component_dropped(self):
        # no n=2 events: the third component runs off to ~1e154, which
        # must be rejected as degenerate, not crash the covariance
        edges = np.linspace(-0.48, 2.48, 201)
        expected = sum(
            n * np.diff(norm.cdf(edges, loc=c, scale=0.08))
            for n, c in ((1095794, 0.0), (3164, 1.0))
        )
        counts = np.random.default_rng(261).poisson(expected).astype(float)
        h = AmplitudeHistogram(edges, counts)
        init = [
            GaussianPeak(max(h.counts[int((c - edges[0]) / h.bin_width)], 1.0), c, 0.08)
            for c in (0.0, 1.0, 2.0)
        ]
        cv, fit, used = robust_peak_counts(h, n_peaks=3, init=init)
        assert used == 2
        assert cv.counts[2] == 0.0

    def test_healthy_fit_untouched(self):
        h = noisy_two_peak()
        cv, fit, used = robust_peak_counts(h, n_peaks=2)
        assert used == 2
        direct = extract_counts(fit_mixture(h, n_peaks=2), h.bin_width)
        assert np.allclose(cv.counts, direct.counts, rtol=1e-9)


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
