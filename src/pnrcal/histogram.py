"""Pulse-amplitude histograms and Gaussian-mixture peak fitting.

The amplitude spectrum of a photon-number-resolving detector shows one
Gaussian peak per detected photon number.  Fitting the sum of Gaussians
A_i * exp(-(x - x_i)^2 / (2 sigma_i^2)) to the binned spectrum and
integrating each peak yields the per-photon-number event counts that feed
the efficiency estimators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError, FitFailureError, InitializationError
from .model import CountVector

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Convergence policy: relative cost change below FTOL within the iteration
# cap, Levenberg-Marquardt with the analytic Jacobian of the Gaussian sum.
FTOL = 1e-10
MAX_ITER = 200
MIN_PEAK_SEPARATION_BINS = 3


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

    `fit_mixture` returns no peak narrower than one bin or centred outside
    the histogram; it raises FitFailureError instead.
    """

    peaks: tuple[GaussianPeak, ...]
    covariance: np.ndarray  # parameter order (A, x, sigma) per peak
    quality: FitQuality

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


def gaussian_sum(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Sum of Gaussians; params = (A, x0, sigma) per peak, flattened."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for a, mu, sig in np.asarray(params, dtype=float).reshape(-1, 3):
        out += a * np.exp(-((x - mu) ** 2) / (2.0 * sig**2))
    return out


def _gaussian_sum_jacobian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    p = np.asarray(params, dtype=float).reshape(-1, 3)
    jac = np.empty((x.size, 3 * p.shape[0]))
    for k, (a, mu, sig) in enumerate(p):
        g = np.exp(-((x - mu) ** 2) / (2.0 * sig**2))
        jac[:, 3 * k] = g
        jac[:, 3 * k + 1] = a * g * (x - mu) / sig**2
        jac[:, 3 * k + 2] = a * g * (x - mu) ** 2 / sig**3
    return jac


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
    prominence = np.empty(candidates.size)
    for n, i in enumerate(candidates + 1):  # i indexes padded
        above = padded > padded[i]
        above[:i] |= padded[:i] == padded[i]
        taller = np.flatnonzero(above)
        k = np.searchsorted(taller, i)
        left = taller[k - 1] if k > 0 else 0
        right = taller[k] if k < taller.size else padded.size - 1
        valley = max(padded[left:i].min(), padded[i:right + 1].min())
        prominence[n] = padded[i] - valley
    ranked = candidates[np.argsort(-prominence, kind="stable")]
    chosen: list[int] = []
    for j in ranked:
        if all(abs(j - k) >= MIN_PEAK_SEPARATION_BINS for k in chosen):
            chosen.append(j)
        if len(chosen) == n_peaks:
            break
    if len(chosen) < n_peaks:
        raise InitializationError(
            f"found {len(chosen)} candidate peaks, need {n_peaks}; pass init"
        )
    chosen.sort()
    params = []
    for j in chosen:
        # half-width at half maximum around the candidate bin
        half = counts[j] / 2.0
        r = j
        while r < counts.size - 1 and counts[r] > half:
            r += 1
        l = j
        while l > 0 and counts[l] > half:
            l -= 1
        sigma = max((r - l) * hist.bin_width / 2.355, hist.bin_width)
        params.extend([counts[j], centers[j], sigma])
    return np.array(params)


def fit_mixture(
    hist: AmplitudeHistogram,
    n_peaks: int,
    init: list[GaussianPeak] | None = None,
    weighting: str = "poisson",
) -> MixtureFit:
    """Levenberg-Marquardt fit of a sum of Gaussians to the histogram.

    With the default Poisson weighting each bin residual is scaled by
    1/sqrt(max(count, 1)); `weighting="none"` gives plain least squares.
    The covariance comes from the final Jacobian with residual variance
    scaling.  Peaks are returned sorted by center.  A fitted peak narrower
    than one bin, or centred outside the histogram, raises FitFailureError
    naming the peak, its center and sigma and the condition it failed.
    """
    if n_peaks < 1:
        raise DomainError("need at least one peak")
    if np.count_nonzero(hist.counts) < 3 * n_peaks:
        raise DomainError("need at least 3 nonempty bins per peak")
    if weighting not in ("poisson", "none"):
        raise DomainError(f"unknown weighting {weighting!r}")
    if hist.total <= 0:
        raise DomainError("histogram is empty")

    x = hist.bin_centers
    y = hist.counts
    if init is not None:
        if len(init) != n_peaks:
            raise DomainError("init must provide one peak per requested peak")
        p0 = np.array(
            [v for p in init for v in (p.amplitude, p.center, p.sigma)]
        )
    else:
        p0 = _seed_from_maxima(hist, n_peaks)

    def solve(p_start, w, required=True, ftol=FTOL, max_iter=MAX_ITER):
        def residuals(params):
            return (gaussian_sum(x, params) - y) * w

        def jac(params):
            return _gaussian_sum_jacobian(x, params) * w[:, None]

        res = least_squares(
            residuals,
            p_start,
            jac=jac,
            method="lm",
            ftol=ftol,
            xtol=1e-14,
            gtol=1e-14,
            max_nfev=max_iter * (p_start.size + 1),
        )
        if required and res.status <= 0:
            raise FitFailureError(
                "mixture fit did not converge within the iteration cap",
                residual_norm=float(np.linalg.norm(res.fun)),
            )
        return res

    if weighting == "poisson":
        # Start from observed-count weights, then reweight by the model
        # (Pearson): observed-count weights bias low-count peak areas and
        # misstate their variances.  The first pass only preconditions the
        # Pearson stages, so hitting its iteration cap is not fatal.
        res = solve(p0, 1.0 / np.sqrt(np.maximum(y, 1.0)), required=False)
        # Iterate the reweighting to its fixed point so refits started from
        # the solution reproduce it.  At least one Pearson pass must converge
        # within the iteration cap.
        converged = False
        for attempt in range(8):
            w = 1.0 / np.sqrt(np.maximum(gaussian_sum(x, res.x), 1.0))
            prev = res.x
            res = solve(res.x, w, required=False)
            converged = converged or res.status > 0
            step = np.abs(res.x - prev)
            if converged and np.all(
                step <= 1e-12 * np.maximum(np.abs(res.x), 1e-300)
            ):
                break
        if not converged:
            raise FitFailureError(
                "mixture fit did not converge within the iteration cap",
                residual_norm=float(np.linalg.norm(res.fun)),
            )
    else:
        res = solve(p0, np.ones_like(y))

    params = res.x.copy()
    # sign of sigma is unidentifiable; canonicalize
    params[2::3] = np.abs(params[2::3])
    params[0::3] = np.abs(params[0::3])

    jtj = res.jac.T @ res.jac
    # Empty bins carry no information; keeping them in the dof would dilute
    # the residual variance scale.
    dof = max(int(np.count_nonzero(y)) - params.size, 1)
    s2 = 2.0 * res.cost / dof
    cov = np.linalg.pinv(jtj) * s2

    order = np.argsort(params[1::3])
    perm = np.concatenate([[3 * k, 3 * k + 1, 3 * k + 2] for k in order])
    params = params[perm]
    cov = cov[np.ix_(perm, perm)]
    _reject_degenerate(params, hist)

    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    peaks = tuple(
        GaussianPeak(
            amplitude=params[3 * k],
            center=params[3 * k + 1],
            sigma=params[3 * k + 2],
            u_amplitude=sig[3 * k],
            u_center=sig[3 * k + 1],
            u_sigma=sig[3 * k + 2],
        )
        for k in range(n_peaks)
    )
    quality = _quality(params, hist, n_peaks)
    return MixtureFit(peaks=peaks, covariance=cov, quality=quality)


def _reject_degenerate(params: np.ndarray, hist: AmplitudeHistogram) -> None:
    """Raise FitFailureError for a peak narrower than one bin or centred
    outside the histogram: such a component is a spike on a noise bin or a
    runaway, not a photon-number peak."""
    lo, hi = hist.bin_edges[0], hist.bin_edges[-1]
    width = hist.bin_width
    for k, (_, center, sigma) in enumerate(params.reshape(-1, 3)):
        if not sigma >= width:
            problem = f"narrower than one bin ({width:.6g})"
        elif not lo <= center <= hi:
            problem = f"centred outside the histogram [{lo:.6g}, {hi:.6g}]"
        else:
            continue
        raise FitFailureError(
            f"degenerate peak in mixture fit: peak {k} at center={center:.6g} "
            f"sigma={sigma:.6g} is {problem}"
        )


def _quality(params: np.ndarray, hist: AmplitudeHistogram, n_peaks: int) -> FitQuality:
    """Reduced chi-square (Poisson bin variances, floored at one count),
    reduced total sum of squares about the histogram mean, and their ratio."""
    y = hist.counts
    model = gaussian_sum(hist.bin_centers, params)
    dof = int(np.count_nonzero(y)) - 3 * n_peaks
    if dof <= 0:
        raise DomainError("non-positive degrees of freedom")
    chi2 = float(np.sum((y - model) ** 2 / np.maximum(y, 1.0)))
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


def robust_peak_counts(
    hist: AmplitudeHistogram,
    n_peaks: int,
    init: list[GaussianPeak] | None = None,
) -> tuple[CountVector, MixtureFit, int]:
    """Peak counts with automatic support truncation.

    Peaks whose population is too small to resolve collapse to sub-bin
    spikes, which `fit_mixture` rejects; when the fit fails, or a peak
    drifts more than half the smallest seed spacing from its `init`, retry
    with one peak fewer and report zero counts (zero uncertainty) for the
    dropped photon numbers.  Returns the padded counts, the accepted fit
    and the number of peaks actually fitted.
    """
    max_drift = math.inf
    if init is not None and len(init) > 1:
        centers = sorted(p.center for p in init)
        max_drift = 0.5 * min(b - a for a, b in zip(centers, centers[1:]))
    k = n_peaks
    # keep the message, not the exception: its traceback would tie the
    # caller's frames, and the arrays they hold, into a reference cycle
    last_error = None
    while k >= 1:
        try:
            fit = fit_mixture(hist, k, init=init[:k] if init else None)
        except (FitFailureError, InitializationError, DomainError) as exc:
            last_error = str(exc)
            k -= 1
            continue
        # photon-number assignment is by center order, so a peak that
        # wandered off its seeded position means a junk component
        if init is not None and any(
            abs(p.center - q.center) > max_drift
            for p, q in zip(fit.peaks, init)
        ):
            last_error = "fitted peak drifted from its seed"
            k -= 1
            continue
        raw = extract_counts(fit, hist.bin_width)
        counts = np.zeros(n_peaks)
        uncs = np.zeros(n_peaks)
        counts[:k] = raw.counts
        uncs[:k] = raw.uncertainties
        return CountVector(counts, uncs), fit, k
    raise FitFailureError(f"no usable mixture fit down to one peak: {last_error}")


def save_histogram_csv(hist: AmplitudeHistogram, path) -> None:
    """Write the `bin_center,count` CSV representation."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "count"])
        for c, n in zip(hist.bin_centers, hist.counts):
            writer.writerow([repr(float(c)), repr(float(n))])


def load_histogram_csv(path) -> AmplitudeHistogram:
    """Read a `bin_center,count` CSV; spacing must be uniform."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["bin_center", "count"]:
            raise DomainError(f"{path}: expected header 'bin_center,count'")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    if len(rows) < 2:
        raise DomainError(f"{path}: need at least two bins")
    centers = np.array([r[0] for r in rows])
    counts = np.array([r[1] for r in rows])
    widths = np.diff(centers)
    if np.any(widths <= 0) or np.ptp(widths) > 1e-9 * widths.mean():
        raise DomainError(f"{path}: bin centers must be uniformly spaced")
    w = widths.mean()
    edges = np.concatenate([centers - w / 2.0, [centers[-1] + w / 2.0]])
    return AmplitudeHistogram(edges, counts)
