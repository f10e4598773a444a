"""Pulse-amplitude histograms, Gaussian-mixture fits and comb-fit counts.

The amplitude spectrum of a photon-number-resolving detector shows one
Gaussian peak per detected photon number.  Every fit here is one binned
Poisson-likelihood fit (`_poisson_fit`) in which each cell expects the sum
over peaks of the peak's count times the cell's Gaussian mass.
`fit_mixture` fits free peaks to the bins; `count_photons` counts each
photon number of the ON and OFF spectra by one fit of an equally spaced
comb of peaks, with one detector response, to both whole spectra.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitFailureError
from .model import CountVector

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Convergence policy: relative deviance change below FTOL within the iteration
# cap, Levenberg-Marquardt with the analytic Jacobian of the cell model.
FTOL = 1e-10
MAX_ITER = 200
MIN_PEAK_SEPARATION_BINS = 3
# largest comb-fit Poisson deviance per degree of freedom: 8000 paper-scale
# closure fits at sigma 0.08-0.2 reach 1.9, an unmodelled peak gives 1600
MAX_DEVIANCE_PER_DOF = 3.0
# floor on a cell's expected count, where its derivatives are taken as zero:
# a start model that underflows in a populated cell would give the Jacobian
# entries near 1e135
MIN_EXPECTED = 1e-9


@dataclass(frozen=True)
class AmplitudeHistogram:
    """Fixed-width binned pulse amplitudes."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_underflow: int = 0
    n_overflow: int = 0

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise DomainError("need n+1 edges for n bins")
        widths = np.diff(edges)
        if np.any(widths <= 0):
            raise DomainError("bin edges must be strictly increasing")
        if np.ptp(widths) > 1e-9 * widths.mean():
            raise DomainError("bins must be uniform within 1e-9 relative")
        if np.any(counts < 0):
            raise DomainError("bin counts must be >= 0")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class GaussianPeak:
    amplitude: float
    center: float
    sigma: float
    u_amplitude: float = 0.0
    u_center: float = 0.0
    u_sigma: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise DomainError("peak amplitude must be >= 0")
        if self.sigma <= 0:
            raise DomainError("peak width must be > 0")

    @property
    def area(self) -> float:
        return self.amplitude * self.sigma * SQRT_2PI


@dataclass(frozen=True)
class FitQuality:
    reduced_chi_square: float
    reduced_total_sum_of_squares: float
    ratio: float
    degrees_of_freedom: int


@dataclass(frozen=True)
class MixtureFit:
    """Converged Gaussian-mixture fit, peaks ordered by center.

    `fit_mixture` returns no peak that is not finite, narrower than one
    bin or centred outside the histogram; it raises FitFailureError
    instead.
    """

    peaks: tuple[GaussianPeak, ...]
    covariance: np.ndarray  # parameter order (A, x, sigma) per peak
    quality: FitQuality
    diagnostics: dict = field(default_factory=dict)  # solve evaluations, finish step kept

    def __post_init__(self):
        centers = [p.center for p in self.peaks]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise DomainError("peak centers must be strictly increasing")

    @property
    def n_peaks(self) -> int:
        return len(self.peaks)

    @property
    def parameters(self) -> np.ndarray:
        return np.array(
            [v for p in self.peaks for v in (p.amplitude, p.center, p.sigma)]
        )


def gaussian_cells(edges: np.ndarray, centers: np.ndarray, widths: np.ndarray, second=False):
    """(masses, slopes[, curvatures]): the (peaks, edges + 1) mass of each Gaussian below
    edges[0], between consecutive edges and above edges[-1], each row summing to one, its
    (2, peaks, edges + 1) derivatives by each peak's centre x and width s and, with `second`,
    its (3, peaks, edges + 1) second derivatives by (x, x), (x, s) and (s, s)."""
    from scipy.special import ndtr

    z = (edges - centers[:, None]) / widths[:, None]
    # at each edge, its share of the slopes by the centre and by the width, the
    # signed tail beyond it, then of the second derivatives; infinite edges add nothing
    at_edges = np.zeros((6 if second else 3, centers.size, edges.size + 2))
    a0 = at_edges[0, :, 1:-1] = -np.exp(-0.5 * z**2) / (SQRT_2PI * widths[:, None])
    at_edges[1, :, 1:-1] = a0 * z
    # masses from the tails, so that a cell above the centre keeps its
    # relative precision; the cell holding the centre is one less both tails
    at_edges[2, :, 1:-1] = np.where(z < 0, 1.0, -1.0) * ndtr(-np.abs(z))
    if second:
        at_edges[3:, :, 1:-1] = a0 / widths[:, None] * np.array([z, z**2 - 1.0, z * (z**2 - 2.0)])
    cells = at_edges[:, :, 1:] - at_edges[:, :, :-1]
    cells[2, np.arange(centers.size), np.count_nonzero(z < 0, axis=1)] += 1.0
    return (cells[2], cells[:2], cells[3:]) if second else (cells[2], cells[:2])


def build_histogram(
    samples,
    n_bins: int,
    amp_range: tuple[float, float] | None = None,
) -> AmplitudeHistogram:
    """Fixed-width histogram; out-of-range samples tracked, not binned."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("no samples to histogram")
    if n_bins < 2:
        raise DomainError("need at least 2 bins")
    if amp_range is None:
        lo, hi = float(samples.min()), float(samples.max())
        if lo == hi:  # degenerate single-value input
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = float(amp_range[0]), float(amp_range[1])
        if hi <= lo:
            raise DomainError("range upper bound must exceed lower bound")
    inside = (samples >= lo) & (samples <= hi)
    if not inside.any():
        raise DomainError("no samples inside the requested range")
    counts, edges = np.histogram(samples[inside], bins=n_bins, range=(lo, hi))
    return AmplitudeHistogram(
        edges,
        counts.astype(float),
        n_underflow=int(np.count_nonzero(samples < lo)),
        n_overflow=int(np.count_nonzero(samples > hi)),
    )


def _seed_from_maxima(hist: AmplitudeHistogram, n_peaks: int) -> np.ndarray:
    """Initial parameters from the most prominent local maxima of the histogram.

    Candidates are ranked by prominence: the height above the higher of
    the two valleys that separate a candidate from taller bins.  The
    histogram counts as empty beyond its edges, and of two equal bins the
    leftmost counts as the taller.  Unlike height, prominence keeps noise
    bumps on the flank of a tall peak from outranking a smaller, separate
    peak.  Chosen candidates are at least MIN_PEAK_SEPARATION_BINS apart.
    """
    counts = hist.counts
    centers = hist.bin_centers
    padded = np.concatenate([[0.0], counts, [0.0]])
    mid = padded[1:-1]
    candidates = np.flatnonzero(
        (mid > 0) & (mid >= padded[:-2]) & (mid >= padded[2:])
    )
    # per candidate, the nearest taller bin on each side (or the padding) and the
    # lowest between, in blocks of candidates that keep the memory linear in the bins
    j = np.arange(padded.size)  # indexes of padded
    prominence = np.empty(candidates.size)
    for rows in np.array_split(np.arange(candidates.size), 1 + candidates.size * j.size // 2**18):
        i = candidates[rows, None] + 1
        left = np.where((padded >= padded[i]) & (j < i), j, 0).max(axis=1, keepdims=True)
        right = np.where((padded > padded[i]) & (j > i), j, j[-1]).min(axis=1, keepdims=True)
        valley = [np.where((lo <= j) & (j <= hi), padded, np.inf).min(axis=1)
                  for lo, hi in ((left, i - 1), (i, right))]
        prominence[rows] = padded[i[:, 0]] - np.maximum(*valley)
    ranked = candidates[np.argsort(-prominence, kind="stable")]
    chosen: list[int] = []
    for j in ranked:
        if all(abs(j - k) >= MIN_PEAK_SEPARATION_BINS for k in chosen):
            chosen.append(j)
        if len(chosen) == n_peaks:
            break
    if len(chosen) < n_peaks:
        raise FitFailureError(
            f"found {len(chosen)} candidate peaks, need {n_peaks}; pass init",
            reason="seed",
        )
    chosen.sort()
    params = []
    for j in chosen:
        params.extend([counts[j], centers[j], _half_width_sigma(hist, j)])
    return np.array(params)


def _half_width_sigma(hist: AmplitudeHistogram, j: int) -> float:
    """Sigma from the half-width at half maximum around bin j, at least one bin."""
    low = np.flatnonzero(hist.counts <= hist.counts[j] / 2.0)
    r = low[low > j].min(initial=hist.counts.size - 1)
    l = low[low < j].max(initial=0)
    return max((r - l) * hist.bin_width / 2.355, hist.bin_width)


def _last_value(fn):
    """fn, keeping its value at the parameters last passed (by their bytes):
    the solver asks for the residuals and the Jacobian at the same point."""
    cache = {}

    def call(params, *flags):
        key = (params.tobytes(), flags)
        if key not in cache:
            cache.clear()
            cache[key] = fn(params, *flags)
        return cache[key]

    return call


def _levenberg_marquardt(residuals, jac, p_start):
    """One solve under the convergence policy, MINPACK's `lmder` through
    `scipy.optimize.leastsq`: (solution, residuals there, converged, evaluations)."""
    # the only scipy.optimize user: commands that never fit skip its import
    from scipy.optimize import leastsq

    p, _, info, _, ier = leastsq(residuals, p_start, Dfun=jac, full_output=True, ftol=FTOL,
                                 xtol=1e-14, gtol=1e-14, maxfev=MAX_ITER * (p_start.size + 1))
    return p, info["fvec"], 1 <= ier <= 4, int(info["nfev"])


def _newton_finish(taylor, params: np.ndarray):
    """(point, kept): one Newton step from params on the deviance, with its gradient and
    Hessian by `taylor`, solved at unit diagonal, or (params, False) if it raises the
    deviance by more than 1e-12 of theirs.  LM stops where the deviance is flat to rounding,
    typically 3e-7 u short of the optimum, and Newton converges quadratically."""
    deviance, gradient, hessian = taylor(params)
    scale = np.sqrt(np.abs(np.diag(hessian)))
    point = params - np.linalg.solve(hessian / np.outer(scale, scale), gradient / scale) / scale
    kept = bool(taylor(point, False) <= deviance * (1.0 + 1e-12))
    return (point if kept else params), kept


def _poisson_fit(y: np.ndarray, model, start: np.ndarray):
    """Binned Poisson-likelihood fit of a model of counts to the cell counts y
    (Baker & Cousins 1984, NIM 221:437).

    The parameters are the model's shape parameters, then the log of each of its counts
    N_k.  `model(params)` gives the counts, the (counts, cells) mass of each count in
    each cell and the (shape, cells) derivatives of the cells' expectation by the shape
    parameters; `model(params, True)` also its (params, params, cells) second
    derivatives by the parameters.  A cell expects mu = sum_k N_k times its mass k,
    floored at MIN_EXPECTED.  One solve minimises the deviance D over signed deviance
    residuals.  Returns the solution, the residuals there, whether it converged, the
    evaluations, `taylor` and `root`: `taylor(params)` is D with its gradient and exact
    Hessian, and `root(params)` is R, with R R^T the inverse Fisher matrix of the shape
    parameters and the counts (not their logs).  `taylor(params, False)` is D alone, and
    it and `root(params)` share one model evaluation at params.  A start point where a
    parameter or a residual is not finite raises FitFailureError with reason "seed".
    """

    @_last_value
    def fit(params, *second):
        """Each cell's signed deviance residual; its expectation mu; the
        derivatives of mu by each parameter and each count, zero below the
        floor; the counts; and, given True, the second derivatives."""
        count, masses, by_shape, *by_pair = model(params, *second)
        # stacked column by column: the memory layout sets the order in which
        # `root` sums each column's norm, and so the last bits of a covariance
        by_param = np.column_stack([*by_shape, masses.T])
        mu = count @ masses
        by_param[mu < MIN_EXPECTED] = 0.0
        mu = np.maximum(mu, MIN_EXPECTED)
        # the deviance, in a form without cancellation near mu = y
        t = np.divide(mu - y, y, out=np.zeros_like(y), where=y > 0)
        deviance = 2.0 * np.where(y > 0, y * (t - np.log1p(t)), mu)
        return np.sign(mu - y) * np.sqrt(np.maximum(deviance, 0.0)), mu, by_param, count, *by_pair

    def jac(params):
        r, mu, by_param, count = fit(params)
        # d r / d mu = (mu - y) / (mu r), tending to 1 / sqrt(mu) at r = 0
        d_mu = np.divide(mu - y, mu * r, out=1.0 / np.sqrt(mu), where=r != 0)
        by_log_count = np.concatenate([np.ones(params.size - count.size), count])
        return d_mu[:, None] * by_param * by_log_count

    def taylor(params, second=True):
        if not second:
            r = fit(params)[0]
            return r @ r
        r, mu, by_param, count, by_pair = fit(params, True)
        by_param = by_param * np.concatenate([np.ones(params.size - count.size), count])
        # d D / d mu; a cell at the floor has no second derivatives either
        d_mu = np.where(mu > MIN_EXPECTED, 2.0 - 2.0 * y / mu, 0.0)
        return r @ r, d_mu @ by_param, (by_param.T * (2.0 * y / mu**2)) @ by_param + by_pair @ d_mu

    def root(params):
        # (W^T W)^-1 = W^+ W^+^T, W = (d mu / d params) / sqrt(mu); W^+ is taken
        # with unit columns, as the parameters and counts span many decades
        _, mu, by_param, _ = fit(params)
        w = by_param / np.sqrt(mu)[:, None]
        scale = np.where(w.any(axis=0), np.linalg.norm(w, axis=0), 1.0)
        return np.linalg.pinv(w / scale) / scale[:, None]

    bad = np.count_nonzero(~np.isfinite(np.concatenate([start, fit(start)[0]])))
    if bad:
        raise FitFailureError(f"fit not finite at the start point ({bad} of {start.size} "
                              f"parameters and {y.size} residuals)", reason="seed")
    return (*_levenberg_marquardt(lambda q: fit(q)[0], jac, start), taylor, root)


def fit_mixture(
    hist: AmplitudeHistogram,
    n_peaks: int,
    init: list[GaussianPeak] | None = None,
) -> MixtureFit:
    """Binned Poisson-likelihood fit of a sum of Gaussian peaks to the histogram.

    Peak k holds N_k events with centre x_k and width sigma_k, and each bin
    expects sum_k N_k times its `gaussian_cells` mass; under- and overflow are
    not fitted.  `_poisson_fit` solves for x_k, sigma_k and log N_k, started
    from `init` or from the histogram's most prominent maxima with N = A sigma
    sqrt(2 pi) / w, and one `_newton_finish` step takes the solve on to the optimum.
    The covariance is the inverse Fisher matrix there, taken to each peak's
    (A, x, sigma) by A = N w / (sigma sqrt(2 pi)).
    Peaks are returned sorted by center.  FitFailureError's `reason` is "seed"
    (too few maxima, or a start point that is not finite, as from a zero
    amplitude),
    "degenerate" (a fitted peak that is not finite, narrower than one bin, or
    centred outside the histogram: a spike or a runaway component, named with
    its center and sigma and the condition it failed) or "convergence".
    """
    if n_peaks < 1:
        raise DomainError("need at least one peak")
    if np.count_nonzero(hist.counts) < 3 * n_peaks:
        raise DomainError("need at least 3 nonempty bins per peak")
    if hist.total <= 0:
        raise DomainError("histogram is empty")

    if init is not None:
        if len(init) != n_peaks:
            raise DomainError("init must provide one peak per requested peak")
        seeds = np.array([(p.amplitude, p.center, p.sigma) for p in init])
    else:
        seeds = _seed_from_maxima(hist, n_peaks).reshape(-1, 3)
    k, w, edges = n_peaks, hist.bin_width, hist.bin_edges
    a, x, s = seeds.T

    def model(params, second=False):
        """The peaks' counts, their bin masses, and the derivatives of the bins'
        expectation by each centre and each width, with `second` by each pair
        of parameters; the model is even in the widths."""
        centers, widths, count = params[:k], np.abs(params[k:2 * k]), np.exp(params[2 * k:])
        masses, (by_center, by_width), *curvatures = gaussian_cells(edges, centers, widths, second)
        sign = np.sign(params[k:2 * k])[:, None]
        masses, by_center = masses[:, 1:-1], count[:, None] * by_center[:, 1:-1]
        by_shape = np.vstack([by_center, by_width[:, 1:-1] * count[:, None] * sign])
        if not second:
            return count, masses, by_shape
        xx, xs, ss = count[:, None] * curvatures[0][:, :, 1:-1]
        # by (x, sigma, log N) of each peak twice; no term mixes two peaks
        blocks = [[xx, xs * sign, by_shape[:k]], [xs * sign, ss, by_shape[k:]],
                  [by_shape[:k], by_shape[k:], count[:, None] * masses]]
        by_pair = np.zeros((3, k, 3, k, masses.shape[1]))
        by_pair[:, np.arange(k), :, np.arange(k)] = np.moveaxis(np.array(blocks), 2, 0)
        return count, masses, by_shape, by_pair.reshape(3 * k, 3 * k, -1)

    # a runaway component overflows the model on its way out of the
    # histogram; it is rejected below, so the overflow is no error.  A zero
    # amplitude starts at log count -inf, refused as a start not finite.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        start = np.concatenate([x, s, np.log(a * np.abs(s) * SQRT_2PI / w)])
        p, r, converged, evaluations, taylor, root = _poisson_fit(hist.counts, model, start)
        # the model is even in the widths; a spike or a runaway is refused at the
        # solve's point, where the finish's step would diverge, and at the finished point
        p[k:2 * k] = np.abs(p[k:2 * k])
        _reject_degenerate(p, hist)
        if converged:
            p, kept = _newton_finish(taylor, p)
            _reject_degenerate(p, hist)
    if not converged:
        raise FitFailureError(
            "mixture fit did not converge within the iteration cap",
            reason="convergence",
            residual_norm=float(np.linalg.norm(r)),
        )
    x, s, count = p[:k], p[k:2 * k], np.exp(p[2 * k:])
    per_event = w / (s * SQRT_2PI)
    order = np.argsort(x)
    # d (A, x, sigma) / d (x, sigma, N), rows per peak in order of center
    eye, zero = np.eye(k), np.zeros((k, k))
    to_peaks = np.block([[zero, np.diag(-count * per_event / s), np.diag(per_event)],
                         [eye, zero, zero], [zero, eye, zero]])
    root_peaks = to_peaks[(order[:, None] + k * np.arange(3)).ravel()] @ root(p)
    cov = root_peaks @ root_peaks.T

    params = np.column_stack([count * per_event, x, s])[order].ravel()
    u = np.sqrt(np.diag(cov))
    peaks = tuple(GaussianPeak(*params[3 * j:3 * j + 3], *u[3 * j:3 * j + 3]) for j in range(k))
    quality = _quality(count @ gaussian_cells(edges, x, s)[0][:, 1:-1], hist, n_peaks)
    return MixtureFit(peaks, cov, quality, dict(evaluations=evaluations, finish_kept=kept))


def _reject_degenerate(p: np.ndarray, hist: AmplitudeHistogram) -> None:
    """Raise FitFailureError for a peak of p (centres, widths, log counts) that is not
    finite, narrower than one bin or centred outside the histogram: a spike on a noise
    bin or a runaway, not a photon-number peak.  Peaks are named in order of centre."""
    lo, hi = hist.bin_edges[0], hist.bin_edges[-1]
    width = hist.bin_width
    centers, sigmas, log_counts = p.reshape(3, -1)
    for k, j in enumerate(np.argsort(centers)):
        center, sigma = centers[j], sigmas[j]
        if not np.isfinite([center, sigma, np.exp(log_counts[j])]).all():
            problem = "not finite"
        elif not sigma >= width:
            problem = f"narrower than one bin ({width:.6g})"
        elif not lo <= center <= hi:
            problem = f"centred outside the histogram [{lo:.6g}, {hi:.6g}]"
        else:
            continue
        raise FitFailureError(
            f"degenerate peak in mixture fit: peak {k} at center={center:.6g} "
            f"sigma={sigma:.6g} is {problem}",
            reason="degenerate",
        )


def _quality(expected: np.ndarray, hist: AmplitudeHistogram, n_peaks: int) -> FitQuality:
    """Reduced chi-square of the expected bin contents (Poisson bin variances,
    floored at one count), reduced total sum of squares about the histogram
    mean, and their ratio."""
    y = hist.counts
    dof = int(np.count_nonzero(y)) - 3 * n_peaks
    if dof <= 0:
        raise DomainError("non-positive degrees of freedom")
    chi2 = float(np.sum((y - expected) ** 2 / np.maximum(y, 1.0)))
    red_chi2 = chi2 / dof
    tss = float(np.sum((y - y.mean()) ** 2))
    red_tss = tss / max(y.size - 1, 1)
    ratio = red_chi2 / red_tss if red_tss > 0 else math.inf
    return FitQuality(red_chi2, red_tss, ratio, dof)


def extract_counts(fit: MixtureFit, bin_width: float) -> CountVector:
    """Event counts from peak integrals: N_i = A_i * sigma_i * sqrt(2 pi) / width.

    Uncertainties propagate the (A, sigma) block of the fit covariance,
    including the A-sigma correlation.
    """
    if bin_width <= 0:
        raise DomainError("bin width must be > 0")
    counts = []
    uncs = []
    for k, p in enumerate(fit.peaks):
        n = p.area / bin_width
        da = p.sigma * SQRT_2PI / bin_width
        ds = p.amplitude * SQRT_2PI / bin_width
        ia, isg = 3 * k, 3 * k + 2
        var = (
            da**2 * fit.covariance[ia, ia]
            + ds**2 * fit.covariance[isg, isg]
            + 2.0 * da * ds * fit.covariance[ia, isg]
        )
        counts.append(n)
        uncs.append(math.sqrt(max(var, 0.0)))
    return CountVector(np.array(counts), np.array(uncs))


def count_photons(on: AmplitudeHistogram, off: AmplitudeHistogram, n_windows: int):
    """Counts of photon numbers 0 .. n_windows - 1 in the ON and OFF spectra
    from one binned Poisson-likelihood fit of a Gaussian comb to both: (on
    counts, off counts, their covariance, {side: diagnostics}).

    Both sides share the detector's response: photon number n has centre
    x0 + n g and a width whose square is linear in n from sigma_0^2 to
    sigma_K^2 at the last photon number, so that no width is negative.  Each
    side has its own count N_n of each photon number: a cell of a side (its
    underflow, each bin, its overflow) expects sum_n N_n times its
    `gaussian_cells` mass, and the side's overflow events past the comb are
    one more count, added to its last photon number.  One `_poisson_fit` solve
    over x0, g, log sigma_0, log sigma_K and the log counts starts at the ON
    side's tallest bin and, more than 4 sigma_0 above it, at the centre of its
    run of 2 sigma_0 with the most events.  A photon number with no events
    within g/2 of its start centre on a side has count and variance 0 there;
    those past the last one counted on either side are dropped.
    The covariance is the inverse Fisher matrix of the ON then the OFF counts.
    A side's diagnostics hold the deviance over its own cells, whose degrees
    of freedom are its non-empty cells less its counts and the 4 shared ones.
    FitFailureError's `reason` is "seed" (`side` on), "convergence" or
    "quality" (the worse side's deviance per degree of freedom above
    MAX_DEVIANCE_PER_DOF, that side as `side`).
    """
    if n_windows < 1:
        raise DomainError("need at least one window")
    x = on.bin_centers
    j0 = int(np.argmax(on.counts))
    sigma0 = _half_width_sigma(on, j0)
    # n=1 at the most events in a run of bins about 2 sigma_0 wide: a tail bin
    # of a tall n=0 can hold more than any one bin of a sparse n=1
    run = np.ones(2 * int(sigma0 / on.bin_width) + 1)
    above = np.convolve(np.where(x > x[j0] + 4.0 * sigma0, on.counts, 0.0), run, "same")
    j1 = int(np.argmax(above))
    if not above[j1] > 0:
        raise FitFailureError(f"on no counts 4 sigma above n=0 at {x[j0]:.4g}",
                              side="on", reason="seed")
    g, photon = x[j1] - x[j0], np.arange(n_windows)
    # each photon number's place between the end widths, in sigma^2
    place = photon / max(n_windows - 1, 1)
    place = np.array([1.0 - place, place])
    names, hists = ("on", "off"), (on, off)
    y = np.concatenate([np.r_[h.n_underflow, h.counts, h.n_overflow] for h in hists])
    ends = np.cumsum([h.counts.size + 2 for h in hists])
    cells = [slice(end - h.counts.size - 2, end) for end, h in zip(ends, hists)]
    # (side, photon number or past the comb) start counts; a count past the
    # comb has the side's overflow for its only cell
    seeds = np.array([np.r_[np.bincount(
        np.clip(np.rint((h.bin_centers - x[j0]) / g), 0, n_windows - 1).astype(int),
        h.counts, minlength=n_windows), h.n_overflow] for h in hists])
    free = seeds > 0
    fixed = np.zeros((2, n_windows + 1, y.size))
    fixed[[0, 1], n_windows, ends - 1] = 1.0
    edges = [h.bin_edges for h in hists]
    if np.array_equal(*edges):
        edges = edges[:1]

    def model(params):
        """The counts, their cell masses, and the derivatives of the cells'
        expectation by x0, g, log sigma_0 and log sigma_K."""
        x0, g = params[:2]
        # each end's share of sigma_n^2, half its derivative by the log end
        shares = np.exp(2.0 * params[2:4])[:, None] * place
        sigma = np.sqrt(shares.sum(axis=0))
        count = np.zeros(free.shape)
        count[free] = np.exp(params[4:])
        masses, by_shape = fixed.copy(), np.empty((4, y.size))
        # one pass serves both sides when their bin edges agree (zip below
        # takes the first two)
        passes = [gaussian_cells(e, x0 + photon * g, sigma) for e in edges] * 2
        for rows, side, comb, (mass, (by_center, by_width)) in zip(
                masses, cells, count[:, :-1], passes):
            rows[:-1, side] = mass
            by_shape[0, side] = comb @ by_center
            by_shape[1, side] = (comb * photon) @ by_center
            by_shape[2:, side] = (comb * shares / sigma) @ by_width
        return count[free], masses[free], by_shape

    start = np.concatenate([[x[j0], g], np.log([sigma0, sigma0]), np.log(seeds[free])])
    p, r, converged, evaluations, _, root = _poisson_fit(y, model, start)
    if not converged:
        raise FitFailureError("comb fit did not converge within the iteration cap",
                              reason="convergence", residual_norm=float(np.linalg.norm(r)))
    sigma = np.sqrt(np.exp(2.0 * p[2:4]) @ place)
    shape = dict(evaluations=evaluations, x0=float(p[0]), g=float(p[1]),
                 sigma0=float(sigma[0]), sigma1=float(sigma[min(1, n_windows - 1)]))
    deviance = np.array([r[side] @ r[side] for side in cells])
    dof = np.maximum(np.array([np.count_nonzero(y[side]) for side in cells]) - 4
                     - free.sum(axis=1), 1)
    worst = int(np.argmax(deviance / dof))
    if not deviance[worst] / dof[worst] <= MAX_DEVIANCE_PER_DOF:
        raise FitFailureError(f"{names[worst]} deviance per degree of freedom "
                              f"{deviance[worst] / dof[worst]:.3g} > {MAX_DEVIANCE_PER_DOF:g}",
                              side=names[worst], reason="quality")
    diagnostics = {name: dict(deviance=float(d), degrees_of_freedom=int(f),
                              deviance_per_dof=float(d / f), **shape)
                   for name, d, f in zip(names, deviance, dof)}
    # (side, photon number) of each count, the count past the comb to the
    # last; photon numbers past the last counted on either side are dropped
    slot = np.r_[photon, n_windows - 1] + n_windows * np.arange(2)[:, None]
    fold = np.eye(2 * n_windows)[:, slot[free]].reshape(2, n_windows, -1)
    counts = fold @ np.exp(p[4:])
    k = 1 + int(np.flatnonzero(counts.sum(axis=0)).max())
    counts_root = (fold[:, :k] @ root(p)[4:]).reshape(2 * k, -1)
    covariance = counts_root @ counts_root.T
    on, off = map(CountVector, counts[:, :k], np.sqrt(np.diag(covariance)).reshape(2, k))
    return on, off, covariance, diagnostics


def save_histogram_csv(hist: AmplitudeHistogram, path) -> None:
    """Write the `bin_center,count` CSV representation."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "count"])
        for c, n in zip(hist.bin_centers, hist.counts):
            writer.writerow([repr(float(c)), repr(float(n))])


def _read_numeric_csv(path, columns: tuple[str, ...]) -> np.ndarray:
    """The (n, len(columns)) numbers under the CSV header `columns`, blank lines
    skipped; a wrong header or row raises DomainError naming the file and line."""
    n = len(columns)
    with open(path) as fh:
        if [h.strip() for h in fh.readline().split(",")] != list(columns):
            raise DomainError(f"{path}: expected header {','.join(columns)!r}")
    try:
        with warnings.catch_warnings():
            # a header-only file has no rows; callers reject it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
        if values.shape[1] == n:
            return values
    except ValueError:
        pass
    # a line scan names the bad row (the C parser counts non-blank rows only);
    # it also takes whitespace-only lines, which the C parser refuses
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if line_no == 1 or not line.strip():
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                rows.append([])
            if len(rows[-1]) != n:
                raise DomainError(
                    f"{path}: line {line_no}: expected "
                    f"{('one number', 'two numbers')[n - 1]}, got {line.strip()!r}"
                )
    return np.array(rows).reshape(-1, n)


def load_histogram_csv(path) -> AmplitudeHistogram:
    """Read a `bin_center,count` CSV; spacing must be uniform, and a row
    that is not two numbers raises DomainError naming the file and line."""
    rows = _read_numeric_csv(path, ("bin_center", "count"))
    if len(rows) < 2:
        raise DomainError(f"{path}: need at least two bins")
    centers, counts = rows.T
    widths = np.diff(centers)
    if np.any(widths <= 0) or np.ptp(widths) > 1e-9 * widths.mean():
        raise DomainError(f"{path}: bin centers must be uniformly spaced")
    w = widths.mean()
    edges = np.concatenate([centers - w / 2.0, [centers[-1] + w / 2.0]])
    return AmplitudeHistogram(edges, counts)
