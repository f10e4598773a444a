"""Pulse-amplitude histograms, Gaussian-mixture fits and comb-fit counts.

The amplitude spectrum of a photon-number-resolving detector shows one
Gaussian peak per detected photon number.  `fit_mixture` fits a sum of
Gaussians A_i * exp(-(x - x_i)^2 / (2 sigma_i^2)) to the binned spectrum.
`count_photons` counts each photon number by a binned Poisson-likelihood
fit of an equally spaced comb of Gaussian peaks to the whole spectrum.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitFailureError
from .model import CountVector

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Convergence policy: relative cost change below FTOL within the iteration
# cap, Levenberg-Marquardt with the analytic Jacobian of the Gaussian sum.
FTOL = 1e-10
MAX_ITER = 200
MIN_PEAK_SEPARATION_BINS = 3
# largest comb-fit Poisson deviance per degree of freedom: 8000 paper-scale
# closure fits at sigma 0.08-0.2 reach 1.9, an unmodelled peak gives 1600
MAX_DEVIANCE_PER_DOF = 3.0
# floor on a cell's expected count in the comb fit, where its derivatives
# are taken as zero: a start model that underflows in a populated cell
# would give the Jacobian entries near 1e135
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


def _gaussian_terms(x: np.ndarray, params: np.ndarray):
    """Each peak's A, x - x0 and sigma, and exp(-(x - x0)^2 / (2 sigma^2)),
    as (peaks, bins) arrays.  `params` is copied: the solver passes a
    buffer it goes on to overwrite, and the terms outlive the call."""
    p = np.array(params, dtype=float).reshape(-1, 3, 1)
    a, mu, sig = p[:, 0], p[:, 1], p[:, 2]
    d = np.asarray(x, dtype=float) - mu
    # float_power is libm pow, as `**` on a scalar is; `**` on an array
    # squares or takes a SIMD pow, which differ in the last bit
    g = np.exp(-(d**2) / (2.0 * np.float_power(sig, 2)))
    return a, d, sig, g


def _gaussian_jacobian(a, d, sig, g) -> np.ndarray:
    """(bins, 3 * peaks) derivatives of the Gaussian sum by (A, x0, sigma)."""
    ag = a * g
    columns = (g, ag * d / np.float_power(sig, 2), ag * d**2 / np.float_power(sig, 3))
    # (bins, peaks, 3), flattened to the (A, x0, sigma) order of params
    return np.stack(columns, axis=-1).transpose(1, 0, 2).reshape(d.shape[1], -1)


def gaussian_sum(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Sum of Gaussians; params = (A, x0, sigma) per peak, flattened."""
    a, _, _, g = _gaussian_terms(x, params)
    return (a * g).sum(axis=0)


def gaussian_cells(edges: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """(peaks, edges + 1) mass of each Gaussian below edges[0], between
    consecutive edges and above edges[-1]; each row sums to one."""
    from scipy.special import ndtr

    z = (edges - centers[:, None]) / widths[:, None]
    return np.diff(ndtr(z), axis=1, prepend=0.0, append=1.0)


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

    def call(params):
        key = params.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = fn(params)
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


def fit_mixture(
    hist: AmplitudeHistogram,
    n_peaks: int,
    init: list[GaussianPeak] | None = None,
) -> MixtureFit:
    """Levenberg-Marquardt fit of a sum of Gaussians to the histogram.

    Each solve is MINPACK's `lmder` through `scipy.optimize.leastsq` with
    the analytic Jacobian; a solver step evaluates the Gaussian terms once,
    and the Jacobian at the same parameters reuses them.  The first solve
    scales each bin residual by 1/sqrt(max(count, 1)); the weights are then
    taken from the model, 1/sqrt(max(model, 1)) (Pearson), and the refit
    repeated to its fixed point.  The covariance comes from the Jacobian at
    the solution with residual variance scaling.
    Peaks are returned sorted by center.  A start point where a residual
    is not finite raises FitFailureError, and so does a fitted peak that is
    not finite, narrower than one bin, or centred outside the histogram (a
    runaway component), naming the peak, its center and sigma and the
    condition it failed.
    """
    if n_peaks < 1:
        raise DomainError("need at least one peak")
    if np.count_nonzero(hist.counts) < 3 * n_peaks:
        raise DomainError("need at least 3 nonempty bins per peak")
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

    def solve(p_start, w):
        """One LM solve: (x, residuals at x, converged, Jacobian function)."""
        terms = _last_value(lambda params: _gaussian_terms(x, params))

        def residuals(params):
            a, _, _, g = terms(params)
            return ((a * g).sum(axis=0) - y) * w

        def jac(params):
            return _gaussian_jacobian(*terms(params)) * w[:, None]

        bad = np.count_nonzero(~np.isfinite(residuals(p_start)))
        if bad:
            raise FitFailureError(
                f"mixture fit residuals are not finite at the start point "
                f"({bad} of {y.size} bins)",
                reason="seed",
            )
        p, fvec, converged, _ = _levenberg_marquardt(residuals, jac, p_start)
        return p, fvec, converged, jac

    # a runaway component overflows the model on its way out of the
    # histogram; it is rejected below, so the overflow is no error
    with np.errstate(over="ignore", invalid="ignore"):
        # Start from observed-count weights, then reweight by the model
        # (Pearson): observed-count weights bias low-count peak areas and
        # misstate their variances.  The first pass only preconditions
        # the Pearson stages, so hitting its iteration cap is not fatal.
        p = solve(p0, 1.0 / np.sqrt(np.maximum(y, 1.0)))[0]
        # Iterate the reweighting to its fixed point so refits started
        # from the solution reproduce it.  At least one Pearson pass must
        # converge within the iteration cap.
        converged = False
        for attempt in range(8):
            w = 1.0 / np.sqrt(np.maximum(gaussian_sum(x, p), 1.0))
            prev = p
            p, fvec, ok, jac = solve(p, w)
            converged = converged or ok
            step = np.abs(p - prev)
            if converged and np.all(step <= 1e-12 * np.maximum(np.abs(p), 1e-300)):
                break
        if not converged:
            raise FitFailureError(
                "mixture fit did not converge within the iteration cap",
                reason="convergence",
                residual_norm=float(np.linalg.norm(fvec)),
            )
        # at the solution: the solver's last evaluation may be a rejected step
        J = jac(p)

    params = p.copy()
    # sign of sigma is unidentifiable; canonicalize
    params[2::3] = np.abs(params[2::3])
    params[0::3] = np.abs(params[0::3])

    order = np.argsort(params[1::3])
    perm = np.concatenate([[3 * k, 3 * k + 1, 3 * k + 2] for k in order])
    # before the covariance: a runaway's Jacobian is not finite
    _reject_degenerate(params[perm], hist)

    jtj = J.T @ J
    # Empty bins carry no information; keeping them in the dof would dilute
    # the residual variance scale.
    dof = max(int(np.count_nonzero(y)) - params.size, 1)
    s2 = np.dot(fvec, fvec) / dof
    cov = np.linalg.pinv(jtj) * s2

    params = params[perm]
    cov = cov[np.ix_(perm, perm)]

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
    """Raise FitFailureError for a peak that is not finite, narrower than
    one bin or centred outside the histogram: such a component is a spike
    on a noise bin or a runaway, not a photon-number peak."""
    lo, hi = hist.bin_edges[0], hist.bin_edges[-1]
    width = hist.bin_width
    for k, peak in enumerate(params.reshape(-1, 3)):
        _, center, sigma = peak
        if not np.isfinite(peak).all():
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


def comb_counts(hist: AmplitudeHistogram, n_windows: int) -> tuple[CountVector, dict]:
    """Counts of photon numbers 0 .. n_windows - 1, with their covariance, from
    one binned Poisson-likelihood fit of a Gaussian comb, and its diagnostics.

    Photon number n has centre x0 + n g, width sigma_n^2 = sigma_0^2 +
    n (sigma_1^2 - sigma_0^2) and count N_n.  A cell (the underflow, each bin,
    the overflow) expects sum_n N_n times its `gaussian_cells` mass; overflow
    events that the comb does not explain, from photon numbers past it, go to
    the last count.  One solve minimises the deviance over x0, g, sigma_0,
    sigma_1 and log N_n, seeded at the tallest bin and the tallest bin more
    than 4 sigma_0 above it.  A photon number with no events within g/2 of its
    seed centre has count and variance 0.  The covariance is the inverse Fisher
    matrix.  FitFailureError's `reason` is "seed", "convergence", "quality"
    (deviance per degree of freedom above MAX_DEVIANCE_PER_DOF) or "comb" (a
    fitted photon number's sigma_n^2 not positive).
    """
    if n_windows < 1:
        raise DomainError("need at least one window")
    counts, x, edges = hist.counts, hist.bin_centers, hist.bin_edges
    j0 = int(np.argmax(counts))
    sigma0 = _half_width_sigma(hist, j0)
    above = np.where(x > x[j0] + 4.0 * sigma0, counts, 0.0)
    j1 = int(np.argmax(above))
    if not above[j1] > 0:
        raise FitFailureError(f"no counts 4 sigma above n=0 at {x[j0]:.4g}", reason="seed")
    g = x[j1] - x[j0]
    seed = np.clip(np.rint((x - x[j0]) / g), 0, n_windows - 1).astype(int)
    n = np.flatnonzero(np.bincount(seed, weights=counts, minlength=n_windows))
    y = np.concatenate([[hist.n_underflow], counts, [hist.n_overflow]])
    past = np.eye(y.size)[-1:] if y[-1] > 0 else np.empty((0, y.size))

    @_last_value
    def fit(params):
        """Each cell's signed deviance residual; its expectation mu, floored at
        MIN_EXPECTED; and the derivatives of mu by x0, g, sigma_0, sigma_1 and
        each count, zero below the floor."""
        x0, g, s0, s1 = params[:4]
        centers, sigma = x0 + n * g, np.sqrt(s0**2 + n * (s1**2 - s0**2))
        z = (edges - centers[:, None]) / sigma[:, None]
        # each cell's mass by its peak's centre and width; infinite edges add nothing
        at_edges = np.zeros((2, n.size, edges.size + 2))
        at_edges[0, :, 1:-1] = -np.exp(-0.5 * z**2) / (SQRT_2PI * sigma[:, None])
        at_edges[1, :, 1:-1] = at_edges[0, :, 1:-1] * z
        by_center, by_width = np.diff(at_edges)
        cells = np.vstack([gaussian_cells(edges, centers, sigma), past])
        count = np.exp(params[4:])
        comb, by_sigma = count[:n.size], np.array([s0 * (1 - n), s1 * n]) / sigma
        by_param = np.column_stack([comb @ by_center, (comb * n) @ by_center,
                                    *((comb * by_sigma) @ by_width), cells.T])
        mu = count @ cells
        by_param[mu < MIN_EXPECTED] = 0.0
        mu = np.maximum(mu, MIN_EXPECTED)
        # the deviance, in a form without cancellation near mu = y
        t = np.divide(mu - y, y, out=np.zeros_like(y), where=y > 0)
        deviance = 2.0 * np.where(y > 0, y * (t - np.log1p(t)), mu)
        return np.sign(mu - y) * np.sqrt(np.maximum(deviance, 0.0)), mu, by_param

    def jac(params):
        r, mu, by_param = fit(params)
        # d r / d mu = (mu - y) / (mu r), tending to 1 / sqrt(mu) at r = 0
        d_mu = np.divide(mu - y, mu * r, out=1.0 / np.sqrt(mu), where=r != 0)
        by_log_count = np.concatenate([np.ones(4), np.exp(params[4:])])
        return d_mu[:, None] * by_param * by_log_count

    start = np.concatenate([[x[j0], g, sigma0, sigma0],
                            np.log(np.bincount(seed, counts)[n]), np.log(past @ y)])
    p, r, converged, evaluations = _levenberg_marquardt(lambda q: fit(q)[0], jac, start)
    deviance, dof = float(r @ r), max(int(np.count_nonzero(y)) - p.size, 1)
    x0, g, s0, s1 = p[:4]
    if not converged:
        raise FitFailureError("comb fit did not converge within the iteration cap",
                              reason="convergence", residual_norm=math.sqrt(deviance))
    if not deviance / dof <= MAX_DEVIANCE_PER_DOF:
        raise FitFailureError(f"deviance per degree of freedom {deviance / dof:.3g} > "
                              f"{MAX_DEVIANCE_PER_DOF:g}", reason="quality")
    if not np.all(s0**2 + n * (s1**2 - s0**2) > 0):
        detail = f"comb widths not positive: sigma_0 = {s0:.4g}, sigma_1 = {s1:.4g}"
        raise FitFailureError(detail, reason="comb")
    # the inverse Fisher matrix (W^T W)^-1, W = (d mu / d params) / sqrt(mu), from
    # the pseudo-inverse of W with unit columns: the counts span six decades
    _, mu, by_param = fit(p)
    w = by_param / np.sqrt(mu)[:, None]
    scale = np.where(w.any(axis=0), np.linalg.norm(w, axis=0), 1.0)
    # each count goes to its photon number, the count past the comb to the last
    fold = np.eye(n_windows)[:, np.r_[n, [n_windows - 1] * len(past)].astype(int)]
    root = fold @ (np.linalg.pinv(w / scale) / scale[:, None])[4:]
    covariance = root @ root.T
    diagnostics = dict(deviance=deviance, degrees_of_freedom=dof, deviance_per_dof=deviance / dof,
                       evaluations=evaluations, x0=float(x0), g=float(g),
                       sigma0=abs(float(s0)), sigma1=abs(float(s1)))
    return CountVector(fold @ np.exp(p[4:]), np.sqrt(np.diag(covariance)), covariance), diagnostics


def count_photons(on: AmplitudeHistogram, off: AmplitudeHistogram, n_windows: int):
    """`comb_counts` of the ON and OFF spectra, with the trailing photon
    numbers empty on both sides (count 0 on both) dropped: (on counts, off
    counts, {side: diagnostics}).  A side's FitFailureError is raised with a
    `side` key."""
    counts, diagnostics = {}, {}
    for side, hist in (("on", on), ("off", off)):
        try:
            counts[side], diagnostics[side] = comb_counts(hist, n_windows)
        except FitFailureError as exc:
            raise FitFailureError(f"{side} {exc}", side=side, **exc.keys) from None
    k = 1 + int(np.flatnonzero(counts["on"].counts + counts["off"].counts).max())
    on, off = (CountVector(c.counts[:k], c.uncertainties[:k], c.covariance[:k, :k])
               for c in counts.values())
    return on, off, diagnostics


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
