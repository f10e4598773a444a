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
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import histogram as hg
from .errors import ConfigError, DomainError
from .model import HeraldStats, estimate_names, estimate_xi
from .reports import calibrate_counts


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _refuse_pileup(config: ExperimentConfig) -> None:
    """Refuse a pulse period shorter than the detector recovery time."""
    if not config.rep_period_us - config.detector_recovery_us >= 0.0:
        raise ConfigError(
            f"pile-up check failed: rep_period_us={config.rep_period_us} "
            f"< detector_recovery_us={config.detector_recovery_us}"
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
    n = np.flatnonzero(counts_by_n)
    cells = hg.gaussian_cells(edges, config.peak_center(n), config.peak_width(n))
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
    """One seed of the full pipeline: simulate, `count_photons`, then
    `calibrate_counts`, as `pnrcal calibrate` does.  Returns {name: (value,
    u)} for each estimate it reports, and for its weighted mean."""
    pad = 6.0 * max(config.peak_widths)
    lo, hi = min(config.peak_centers) - pad, float(config.peak_center(max_index)) + pad
    on_hist, off_hist, _ = simulate_histograms(config, n_bins, (lo, hi))
    xi = estimate_xi(simulate_herald_stats(config, dark_rate_for_purity(config)))
    on, off, _ = hg.count_photons(on_hist, off_hist, max_index + 1)
    result = calibrate_counts(on, off, xi)
    scored = {name: (e.gamma, e.u_gamma) for name, e in result.estimates.items()}
    scored["weighted_mean"] = (result.combined.gamma, result.combined.u_gamma)
    return scored


def _closure_seed(seed: int, score):
    """(score(), None) for one seed, or (None, its failure record): the
    seed, the exception's `side` and `reason` keys, and the exception."""
    try:
        return score(), None
    except Exception as exc:  # recorded, not fatal
        keys = "".join(f" {k}={v}" for k, v in getattr(exc, "keys", {}).items()
                       if k in ("side", "reason"))
        return None, f"seed={seed}{keys} stage_error={exc!r}"


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
    failures are recorded, not fatal.  An estimator that no seed scored
    gets no row.
    """
    if n_seeds < 2:
        raise DomainError("need at least two seeds")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(n_seeds)]
    configs = [dataclasses.replace(config, seed=s) for s in seeds]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a worker that dies mid-seed fails that seed through fut.result()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_closure_single, c, n_bins, max_index) for c in configs]
            outcomes = [_closure_seed(c.seed, f.result) for c, f in zip(configs, futures)]
    else:
        outcomes = [
            _closure_seed(c.seed, functools.partial(_closure_single, c, n_bins, max_index))
            for c in configs
        ]
    per_seed = [scored for scored, _ in outcomes]
    failures = [failure for _, failure in outcomes if failure is not None]

    estimators = []
    for name in estimate_names(max_index + 1) + ["weighted_mean"]:
        scored = np.array([r[name] for r in per_seed if r is not None and name in r])
        if not scored.size:
            continue  # no seed scored it: nothing to report
        vals, us = scored.T
        ok = us > 0
        pulls = (vals[ok] - config.gamma_true) / us[ok]
        estimators.append(
            EstimatorClosure(
                name=name,
                n_success=int(vals.size),
                mean=float(vals.mean()),
                spread=float(vals.std(ddof=1)) if vals.size > 1 else math.nan,
                mean_claimed_u=float(us.mean()),
                bias=float(vals.mean() - config.gamma_true),
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


def both_sides(fn, on, off):
    """(fn(on), fn(off)), with fn(off) run in a forked child process.

    The child inherits `off` through fork, so nothing large is pickled;
    it sends back only its result, or the exception it raised, which is
    raised again here.  The child is always joined, also when fn(on)
    raises, and when both halves fail the error of fn(on) wins.  A child
    that ends without a result raises OSError naming its exit code.
    Needs POSIX fork.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_outcome, args=(send, fn, off))
    child.start()
    send.close()
    try:
        on_result = fn(on)
        try:
            ok, off_result = receive.recv()
        except EOFError:  # the child ended without sending
            ok, off_result = False, None
    finally:
        receive.close()
        child.join()
    if not ok:
        raise off_result or OSError(
            f"the process for the off side exited with code {child.exitcode} "
            "and no result"
        )
    return on_result, off_result


def _send_outcome(send, fn, arg) -> None:
    """The child of `both_sides`: send (True, fn(arg)) or (False, its exception)."""
    try:
        outcome = (True, fn(arg))
    except Exception as exc:  # raised again in the parent
        outcome = (False, exc)
    try:
        send.send(outcome)
    except BrokenPipeError:
        pass  # the parent's own half raised, and it no longer listens


def _write_amplitudes(path, amps: np.ndarray) -> None:
    """One `amplitude` CSV, one repr per line, written 2**16 values at a
    time to bound memory."""
    with open(path, "w") as fh:
        fh.write("amplitude\n")
        for start in range(0, amps.size, 2**16):
            block = amps[start : start + 2**16].tolist()
            fh.write("\n".join(map(repr, block)) + "\n")


def save_run(run: RawRun, config: ExperimentConfig, out_dir) -> None:
    """Persist on.csv / off.csv (column `amplitude`, one repr per line) and
    truth.json.  off.csv is written in a forked child process while this
    one writes on.csv (`both_sides`); an OSError of either file is raised
    here, that of on.csv first."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    both_sides(
        lambda target: _write_amplitudes(*target),
        (out / "on.csv", run.on_amplitudes),
        (out / "off.csv", run.off_amplitudes),
    )
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
