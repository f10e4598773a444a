"""Monte Carlo generator of the heralded-photon calibration experiment.

Each laser pulse may produce a heralding count; heralded gates contain the
heralded photon (detected with probability gamma when the herald is
genuine) plus Poisson-distributed accidental counts, non-heralded gates
contain accidentals only.  The detector maps the photon number of a gate
to a pulse amplitude drawn from the corresponding Gaussian peak.  The
output doubles as the independent oracle for end-to-end closure tests.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import histogram as hg
from . import uncertainty as unc
from .errors import ConfigError, DomainError
from .model import HeraldStats, estimate_names, estimate_xi, gamma_estimates


@dataclass(frozen=True)
class ExperimentConfig:
    """Ground-truth parameters of a simulated calibration run."""

    gamma_true: float
    xi_true: float
    herald_prob: float
    background_mean: float
    peak_centers: tuple[float, ...]
    peak_widths: tuple[float, ...]
    n_pulses: int
    rep_period_us: float = 25.0
    detector_recovery_us: float = 10.4
    seed: int = 0

    def __post_init__(self):
        for name in ("gamma_true", "xi_true", "herald_prob"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.background_mean < 0:
            raise ConfigError("background_mean must be >= 0")
        if self.rep_period_us <= 0:
            raise ConfigError("rep_period_us must be > 0")
        if self.n_pulses < 1:
            raise ConfigError("n_pulses must be >= 1")
        if len(self.peak_centers) < 1 or len(self.peak_widths) != len(
            self.peak_centers
        ):
            raise ConfigError("peak_centers and peak_widths must align")
        if any(w <= 0 for w in self.peak_widths):
            raise ConfigError("peak widths must be > 0")
        object.__setattr__(self, "peak_centers", tuple(self.peak_centers))
        object.__setattr__(self, "peak_widths", tuple(self.peak_widths))

    def peak_center(self, n: np.ndarray) -> np.ndarray:
        """Peak center per photon number; linear extrapolation past the list."""
        centers = np.asarray(self.peak_centers)
        last = centers.size - 1
        if last == 0:
            slope = 1.0
        else:
            slope = centers[last] - centers[last - 1]
        n = np.asarray(n)
        inside = np.minimum(n, last)
        return centers[inside] + np.maximum(n - last, 0) * slope

    def peak_width(self, n: np.ndarray) -> np.ndarray:
        widths = np.asarray(self.peak_widths)
        return widths[np.minimum(np.asarray(n), widths.size - 1)]


@dataclass(frozen=True)
class RunTallies:
    """Ground-truth counters accumulated during a simulation."""

    true_heralds: int
    false_heralds: int
    heralded_detections: int
    on_background_photons: int
    off_background_photons: int
    on_counts_by_n: tuple[int, ...]
    off_counts_by_n: tuple[int, ...]

    def __post_init__(self):
        if self.heralded_detections > self.true_heralds:
            raise DomainError("detections cannot exceed true heralds")

    @property
    def heralded_misses(self) -> int:
        return self.true_heralds - self.heralded_detections


@dataclass(frozen=True)
class RawRun:
    """Amplitude samples for heralded (ON) and paired non-heralded (OFF) gates."""

    on_amplitudes: np.ndarray
    off_amplitudes: np.ndarray
    tallies: RunTallies


@dataclass(frozen=True)
class PileupReport:
    passes: bool
    rep_period_us: float
    detector_recovery_us: float
    margin_us: float


def check_pileup(config: ExperimentConfig) -> PileupReport:
    """Pass iff the pulse period is at least the detector recovery time."""
    margin = config.rep_period_us - config.detector_recovery_us
    return PileupReport(
        passes=margin >= 0.0,
        rep_period_us=config.rep_period_us,
        detector_recovery_us=config.detector_recovery_us,
        margin_us=margin,
    )


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _refuse_pileup(config: ExperimentConfig) -> None:
    report = check_pileup(config)
    if not report.passes:
        raise ConfigError(
            f"pile-up check failed: rep_period_us={report.rep_period_us} "
            f"< detector_recovery_us={report.detector_recovery_us}"
        )


def simulate_run(config: ExperimentConfig) -> RawRun:
    """Generate one full ON/OFF measurement, deterministic given the seed."""
    _refuse_pileup(config)
    rng_herald, rng_bg_on, rng_bg_off, rng_det, rng_amp_on, rng_amp_off = _streams(
        config.seed, 6
    )

    heralded = rng_herald.random(config.n_pulses) < config.herald_prob
    n_her = int(heralded.sum())
    n_quiet = config.n_pulses - n_her

    true_her = rng_det.random(n_her) < config.xi_true
    detected = true_her & (rng_det.random(n_her) < config.gamma_true)
    bg_on = rng_bg_on.poisson(config.background_mean, n_her)
    photons_on = bg_on + detected.astype(np.int64)

    # each heralded gate is paired with the next non-heralded gate
    n_off_gates = min(n_her, n_quiet)
    photons_off = rng_bg_off.poisson(config.background_mean, n_off_gates)

    on_amplitudes = rng_amp_on.normal(
        config.peak_center(photons_on), config.peak_width(photons_on)
    )
    off_amplitudes = rng_amp_off.normal(
        config.peak_center(photons_off), config.peak_width(photons_off)
    )

    k = int(max(photons_on.max(initial=0), photons_off.max(initial=0)))
    tallies = RunTallies(
        true_heralds=int(true_her.sum()),
        false_heralds=n_her - int(true_her.sum()),
        heralded_detections=int(detected.sum()),
        on_background_photons=int(bg_on.sum()),
        off_background_photons=int(photons_off.sum()),
        on_counts_by_n=tuple(np.bincount(photons_on, minlength=k + 1).tolist()),
        off_counts_by_n=tuple(np.bincount(photons_off, minlength=k + 1).tolist()),
    )
    return RawRun(on_amplitudes, off_amplitudes, tallies)


def _poisson_tally(rng: np.random.Generator, n_gates: int, mean: float) -> np.ndarray:
    """Gate counts by photon number for n_gates gates of Poisson(mean) photons.

    The count at n = 0, 1, ... is a binomial draw over the gates left, with
    the probability of n photons given at least n, until no gate is left:
    exact, with no truncated tail.  The last entry is nonzero.
    """
    from scipy.special import gammaln, pdtrc, xlogy

    tally = []
    left, n = n_gates, 0
    while left > 0:
        at_least_n = pdtrc(n - 1, mean) if n else 1.0
        pmf = math.exp(xlogy(n, mean) - mean - gammaln(n + 1))
        p = min(pmf / at_least_n, 1.0) if at_least_n > 0 else 1.0
        drawn = int(rng.binomial(left, p))
        tally.append(drawn)
        left -= drawn
        n += 1
    return np.array(tally, dtype=np.int64)


def _draw_histogram(
    rng: np.random.Generator,
    counts_by_n: np.ndarray,
    config: ExperimentConfig,
    edges: np.ndarray,
) -> hg.AmplitudeHistogram:
    """Bin the amplitudes of counts_by_n gates without drawing them: one
    multinomial per photon number over [underflow, bins, overflow], with
    Gaussian-CDF differences at the edges as the cell probabilities."""
    from scipy.special import ndtr

    n = np.flatnonzero(counts_by_n)
    cdf = ndtr(
        (edges - config.peak_center(n)[:, None]) / config.peak_width(n)[:, None]
    )
    cells = np.diff(cdf, axis=1, prepend=0.0, append=1.0)
    drawn = rng.multinomial(counts_by_n[n], cells).sum(axis=0)
    if not drawn[1:-1].any():
        raise DomainError("no samples inside the requested range")
    return hg.AmplitudeHistogram(
        edges,
        drawn[1:-1].astype(float),
        n_underflow=int(drawn[0]),
        n_overflow=int(drawn[-1]),
    )


def simulate_histograms(
    config: ExperimentConfig,
    n_bins: int,
    amp_range: tuple[float, float],
) -> tuple[hg.AmplitudeHistogram, hg.AmplitudeHistogram, RunTallies]:
    """The ON and OFF histograms of one run, drawn without per-pulse amplitudes.

    The model is that of `simulate_run`, drawn at tally level: heralds,
    true heralds and detections as binomials, the gates per photon number
    as Poisson tallies, and the bin counts as multinomials over the bins
    of `np.linspace(lo, hi, n_bins + 1)` plus under- and overflow.  The
    result equals in distribution `build_histogram` applied to the
    `simulate_run` amplitudes (not draw for draw) and costs O(K * bins)
    instead of O(pulses).  Deterministic given the seed.  Returns
    (on, off, tallies).
    """
    _refuse_pileup(config)
    if n_bins < 2:
        raise DomainError("need at least 2 bins")
    lo, hi = float(amp_range[0]), float(amp_range[1])
    if hi <= lo:
        raise DomainError("range upper bound must exceed lower bound")
    rng_herald, rng_bg_on, rng_bg_off, rng_det, rng_amp_on, rng_amp_off = _streams(
        config.seed, 6
    )
    mean = config.background_mean

    n_her = int(rng_herald.binomial(config.n_pulses, config.herald_prob))
    n_true = int(rng_det.binomial(n_her, config.xi_true))
    n_det = int(rng_det.binomial(n_true, config.gamma_true))
    # a detected herald adds its photon to the gate's background
    bg_det = _poisson_tally(rng_bg_on, n_det, mean)
    bg_rest = _poisson_tally(rng_bg_on, n_her - n_det, mean)
    # each heralded gate is paired with the next non-heralded gate
    bg_off = _poisson_tally(rng_bg_off, min(n_her, config.n_pulses - n_her), mean)

    k = max(bg_det.size + 1, bg_rest.size, bg_off.size)
    on = np.zeros(k, dtype=np.int64)
    on[: bg_rest.size] += bg_rest
    on[1 : bg_det.size + 1] += bg_det
    off = np.zeros(k, dtype=np.int64)
    off[: bg_off.size] = bg_off

    edges = np.linspace(lo, hi, n_bins + 1)
    photons = np.arange(k)
    tallies = RunTallies(
        true_heralds=n_true,
        false_heralds=n_her - n_true,
        heralded_detections=n_det,
        on_background_photons=int(photons @ on) - n_det,
        off_background_photons=int(photons @ off),
        on_counts_by_n=tuple(on.tolist()),
        off_counts_by_n=tuple(off.tolist()),
    )
    return (
        _draw_histogram(rng_amp_on, on, config, edges),
        _draw_histogram(rng_amp_off, off, config, edges),
        tallies,
    )


def dark_rate_for_purity(config: ExperimentConfig) -> float:
    """Per-pulse dark/stray herald probability implied by xi_true."""
    hp, xi = config.herald_prob, config.xi_true
    if xi <= 0:
        raise ConfigError("xi_true must be > 0 to derive a dark rate")
    return (1.0 - xi) * hp / (1.0 - (1.0 - xi) * (1.0 - hp))


def simulate_herald_stats(config: ExperimentConfig, dark_rate: float) -> HeraldStats:
    """Heralding counts with the pump on (PDC plus dark/stray) and off."""
    if not 0 <= dark_rate <= 1:
        raise DomainError("dark_rate must lie in [0, 1]")
    rng_on, rng_off = _streams(config.seed ^ 0x48455244, 2)
    p_on = 1.0 - (1.0 - config.herald_prob) * (1.0 - dark_rate)
    n_on = int(rng_on.binomial(config.n_pulses, p_on))
    n_off = int(rng_off.binomial(config.n_pulses, dark_rate))
    if n_on == 0:
        raise DomainError("no heralding counts generated; increase n_pulses")
    return HeraldStats(n_on=n_on, n_off=min(n_off, n_on))


@dataclass(frozen=True)
class EstimatorClosure:
    """Closure statistics for one estimator across seeds."""

    name: str
    n_success: int
    mean: float
    spread: float
    mean_claimed_u: float
    bias: float
    pull_mean: float
    pull_variance: float
    n_out_of_range: int = 0


@dataclass(frozen=True)
class ClosureReport:
    gamma_true: float
    n_seeds: int
    n_completed: int
    estimators: tuple[EstimatorClosure, ...]
    failures: tuple[str, ...]

    def estimator(self, name: str) -> EstimatorClosure:
        for e in self.estimators:
            if e.name == name:
                return e
        raise KeyError(name)


def _closure_single(config: ExperimentConfig, n_bins: int, max_index: int):
    """One seed of the full pipeline: simulate, fit, extract, estimate."""
    lo = min(config.peak_centers) - 6.0 * max(config.peak_widths)
    hi = (
        float(config.peak_center(np.array([max_index]))[0])
        + 6.0 * max(config.peak_widths)
    )
    on_hist, off_hist, _ = simulate_histograms(config, n_bins, (lo, hi))
    n_peaks = max_index + 1
    init_centers = config.peak_center(np.arange(n_peaks)).astype(float)
    init_widths = config.peak_width(np.arange(n_peaks)).astype(float)

    stats = simulate_herald_stats(config, dark_rate_for_purity(config))
    xi = estimate_xi(stats)
    counts = {}
    for tag, hist in (("on", on_hist), ("off", off_hist)):
        init = [
            hg.GaussianPeak(
                amplitude=max(
                    float(
                        hist.counts[
                            min(
                                int((c - lo) / hist.bin_width),
                                hist.counts.size - 1,
                            )
                        ]
                    ),
                    1.0,
                ),
                center=float(c),
                sigma=float(w),
            )
            for c, w in zip(init_centers, init_widths)
        ]
        counts[tag], _, _ = hg.robust_peak_counts(hist, n_peaks, init=init)

    inputs = unc.counting_inputs(counts["on"], counts["off"], xi)
    values, jac = gamma_estimates(counts["on"].counts, counts["off"].counts, xi.xi)
    # the analytic Jacobian, not the cross-checking jacobian(): padded zero
    # counts sit below the resolution of the fixed finite-difference step,
    # so the cross-check would reject them spuriously.  An undefined bin is
    # skipped for this seed; the others still count.
    return {
        name: (float(value), unc.propagate(gradient, inputs, name).combined)
        for name, value, gradient in zip(estimate_names(n_peaks), values, jac)
        if math.isfinite(value)
    }


def closure_test(
    config: ExperimentConfig,
    n_seeds: int,
    n_bins: int = 200,
    max_index: int = 2,
    jobs: int = 1,
) -> ClosureReport:
    """Run the full pipeline over independent seeds and score the pulls.

    pull = (estimate - gamma_true) / claimed uncertainty; unit pull
    variance means the claimed uncertainties are calibrated.  Per-seed
    failures are recorded, not fatal.
    """
    if n_seeds < 2:
        raise DomainError("need at least two seeds")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(n_seeds)]
    configs = [dataclasses.replace(config, seed=s) for s in seeds]

    per_seed: list[dict | None] = []
    failures: list[str] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_closure_single, c, n_bins, max_index) for c in configs
            ]
            for k, fut in enumerate(futures):
                try:
                    per_seed.append(fut.result())
                except Exception as exc:  # recorded, not fatal
                    per_seed.append(None)
                    failures.append(f"seed={seeds[k]} stage_error={exc!r}")
    else:
        for k, c in enumerate(configs):
            try:
                per_seed.append(_closure_single(c, n_bins, max_index))
            except Exception as exc:
                per_seed.append(None)
                failures.append(f"seed={seeds[k]} stage_error={exc!r}")

    estimators = []
    for name in estimate_names(max_index + 1):
        vals = np.array(
            [r[name][0] for r in per_seed if r is not None and name in r]
        )
        us = np.array(
            [r[name][1] for r in per_seed if r is not None and name in r]
        )
        ok = us > 0
        pulls = (vals[ok] - config.gamma_true) / us[ok]
        estimators.append(
            EstimatorClosure(
                name=name,
                n_success=int(vals.size),
                mean=float(vals.mean()) if vals.size else math.nan,
                spread=float(vals.std(ddof=1)) if vals.size > 1 else math.nan,
                mean_claimed_u=float(us.mean()) if us.size else math.nan,
                bias=float(vals.mean() - config.gamma_true) if vals.size else math.nan,
                pull_mean=float(pulls.mean()) if pulls.size else math.nan,
                pull_variance=float(pulls.var(ddof=1)) if pulls.size > 1 else math.nan,
                n_out_of_range=int(np.count_nonzero((vals < 0.0) | (vals > 1.0))),
            )
        )
    return ClosureReport(
        gamma_true=config.gamma_true,
        n_seeds=n_seeds,
        n_completed=sum(1 for r in per_seed if r is not None),
        estimators=tuple(estimators),
        failures=tuple(failures),
    )


def save_run(run: RawRun, config: ExperimentConfig, out_dir) -> None:
    """Persist on.csv / off.csv (column `amplitude`, one repr per line,
    written 2**16 values at a time to bound memory) and truth.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, amps in (("on.csv", run.on_amplitudes), ("off.csv", run.off_amplitudes)):
        with open(out / name, "w") as fh:
            fh.write("amplitude\n")
            for start in range(0, amps.size, 2**16):
                block = amps[start : start + 2**16].tolist()
                fh.write("\n".join(map(repr, block)) + "\n")
    truth = {
        "config": dataclasses.asdict(config),
        "tallies": dataclasses.asdict(run.tallies),
    }
    with open(out / "truth.json", "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_amplitudes(path) -> np.ndarray:
    """Read a single-column `amplitude` CSV; blank lines are skipped, and a
    value that is not a number raises DomainError naming the file and line."""
    return hg._read_numeric_csv(path, ("amplitude",)).reshape(-1)
