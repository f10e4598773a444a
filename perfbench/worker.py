"""Runs one benchmark workload against pnrcal and writes its result as JSON.

Started by run.py in a child process of its own, so that the parent can
read this process's peak RSS.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --result PATH [--tiny]

Every op's output is checked.  An op counts as failed, with its reason,
when a program call raises or exits non-zero, or when the calibration it
produced misses the pipeline's success criterion (gamma within a stated
multiple of its u of the truth).  An op whose output contradicts a fixed
reference (the published table's digits, the fit's peak order, finite
closure estimates) also counts as failed and sets `correct` to false.

The end-to-end times are scaled to a nominal machine speed by fixed
reference work timed in the same run (see Pace).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pnrcal import cli, histogram, reports, simulator  # noqa: E402
from pnrcal.model import CountVector, HeraldPurity  # noqa: E402
from tracing import Tracer  # noqa: E402

# set-up runs at least this many times and for at least this long; its
# median is setup_s
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
# a timed run makes at least this many passes over its distinct inputs
MIN_PASSES = 2
# an op that starts after this many seconds of a phase is not started
HARD_CAP_S = 60.0
# the reference work is timed between program calls, at most once in this
# many seconds
PACE_EVERY_S = 0.25

# README [experiment]: the paper-scale configuration.
README_EXPERIMENT = dict(
    gamma_true=0.00709,
    xi_true=0.98794,
    herald_prob=0.5,
    background_mean=0.00286,
    peak_centers=(0.0, 1.0, 2.0, 3.0),
    peak_widths=(0.08, 0.08, 0.08, 0.08),
    n_pulses=2_200_000,
)
README_EXPERIMENT_INI = """\
[experiment]
gamma_true = 0.00709
xi_true = 0.98794
herald_prob = 0.5
background_mean = 0.00286
peak_centers = 0.0 1.0 2.0 3.0
peak_widths = 0.08 0.08 0.08 0.08
n_pulses = {n_pulses}
seed = 42
"""
README_SEED = 42
# README [herald] / [inputs] / [fit] for `calibrate` on simulated CSVs.
README_CALIBRATE_INI = """\
[herald]
n_on = 1000000
n_off = 12060

[inputs]
on_amplitudes = run/on.csv
off_amplitudes = run/off.csv

[fit]
n_peaks = 3
bins = 200
"""
# The published ON/OFF table with the published herald purity.
TABLE_ON = (np.array([5.069e6, 5.0200e4, 118.0]), np.array([1.4e4, 200.0, 6.0]))
TABLE_OFF = (np.array([5.103e6, 1.4600e4, 23.9]), np.array([1.4e4, 150.0, 1.5]))
TABLE_XI = (0.98794, 7e-5)
TABLE_INI = """\
[herald]
xi = 0.98794
u_xi = 7e-5

[counts]
on = 5.069e6 5.0200e4 118
on_u = 1.4e4 200 6
off = 5.103e6 1.4600e4 23.9
off_u = 1.4e4 150 1.5
"""
# ACCEPTANCE 1: values recomputed from the table, in percent.
TABLE_GAMMA_PCT = {"gamma0": 0.707681, "gamma1": 0.707841}
TABLE_GAMMA2_PCT = 0.65
# ACCEPTANCE 7a: low-count runs fitted with 4 auto-seeded peaks.
FIT_EXPERIMENT = dict(
    gamma_true=0.3,
    xi_true=0.95,
    herald_prob=0.8,
    background_mean=0.3,
    peak_centers=(0.0, 1.0, 2.0, 3.0),
    peak_widths=(0.08, 0.08, 0.08, 0.08),
    n_pulses=40_000,
)
# `calibrate` on simulated data must put gamma0 within this many of its
# stated u of gamma_true.
CLI_PULL_LIMIT = 5.0


class OpFailed(Exception):
    """The program failed an op: a non-zero exit code, a failure it
    recorded, or a calibration that misses its success criterion."""


class WrongOutput(Exception):
    """An op completed but its output failed the check."""


def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def run_each(check, indices) -> None:
    """Call check(k) for every k, then raise the first WrongOutput, or else
    the first other error, that any of them raised."""
    errors = []
    for k in indices:
        try:
            check(k)
        except Exception as exc:  # the batch goes on; the op fails after it
            errors.append(exc)
    if errors:
        raise next((e for e in errors if isinstance(e, WrongOutput)), errors[0])


# Buffers of the reference work, allocated once so that the state of the
# process's heap does not change its time; untouched pages take no memory.
_REF_X = np.linspace(-0.4, 3.6, 150)
_REF_GRID = np.linspace(-4.0, 4.0, 400_000)
_REF_WAVE = np.empty_like(_REF_GRID)
_REF_INDEX = np.empty(_REF_GRID.size, dtype=np.int64)
_REF_RNG = np.random.default_rng(0)
_REF_DRAWS = np.empty(1_000_000)


def _reference_python() -> None:
    acc, seen = 0, {}
    for i in range(60_000):
        acc += (i * i) % 7
        seen[i & 1023] = acc


def _reference_small_arrays() -> None:
    p = np.array([1.0, 0.0, 0.1])
    for _ in range(800):
        y = p[0] * np.exp(-0.5 * ((_REF_X - p[1]) / p[2]) ** 2)
        p = p + 1e-12 * y[:3]


def _reference_large_arrays() -> None:
    np.multiply(_REF_GRID, 7.0, out=_REF_WAVE)
    np.sin(_REF_WAVE, out=_REF_WAVE)
    np.multiply(_REF_WAVE, 50.0, out=_REF_WAVE)
    np.add(_REF_WAVE, 50.0, out=_REF_WAVE)
    np.copyto(_REF_INDEX, _REF_WAVE, casting="unsafe")
    np.bincount(_REF_INDEX, minlength=101)


def _reference_random_draws() -> None:
    _REF_RNG.random(out=_REF_DRAWS)
    _REF_RNG.standard_normal(out=_REF_DRAWS)


# Fixed reference work that does not call pnrcal, so no change to pnrcal
# changes its time; only the machine's speed does.  One kind per kind of
# work the workloads do: pure Python; numpy on small arrays in a Python
# loop, as in a fit or an uncertainty budget; numpy on large arrays, as in
# a histogram or a CSV; random draws into a large array, as in the
# simulator.  The kinds slow by different factors when the machine slows,
# so each workload is scaled by the kinds its ops do (`pace_kinds`).  The
# second value is the kind's nominal time, about its median on the 2-core
# VM the bounds were set on.
REFERENCE = {
    "python": (_reference_python, 0.009),
    "small_arrays": (_reference_small_arrays, 0.006),
    "large_arrays": (_reference_large_arrays, 0.007),
    "random_draws": (_reference_random_draws, 0.019),
}


class Pace:
    """The machine's speed over a run, from the reference work.

    Other tenants of a shared VM slowed the same code by up to 1.6x for
    minutes at a time, which no statistic taken inside one run removes.
    `tick()` times the reference work of the given kinds between program
    calls, at most once per PACE_EVERY_S.  `factor` is their nominal time
    over the median of their times in a span of samples; a time measured
    over that span, times the factor, is the time at the nominal speed.
    """

    def __init__(self, kinds: tuple[str, ...]):
        self.work = [REFERENCE[kind][0] for kind in kinds]
        self.nominal_s = sum(REFERENCE[kind][1] for kind in kinds)
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        for work in self.work:
            work()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self) -> None:
        if time.perf_counter() - self.last >= PACE_EVERY_S:
            self.sample()

    def factor(self, first: int = 0, stop: int | None = None) -> float:
        """The factor from samples `first` to `stop`."""
        return self.nominal_s / statistics.median(self.samples[first:stop])


class Clock:
    """Sums the time spent inside the program's calls for one op.

    With a tracer, each timed region is also an "op" span, so the tracer
    can split op time into layer self times and glue.  With a pace, the
    reference computation may run after each timed region.
    """

    def __init__(self, tracer: Tracer | None = None, pace: Pace | None = None):
        self.tracer = tracer
        self.pace = pace
        self.elapsed = 0.0

    @contextlib.contextmanager
    def timed(self):
        span = self.tracer.begin("op") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - start
            if span is not None:
                self.tracer.end(span)
            if self.pace is not None:
                self.pace.tick()


class Workload:
    """Op i runs distinct input i % pool; subclasses set up and check."""

    item = "op"
    items_per_op = 1
    pool = 1
    pace_kinds: tuple[str, ...]  # the kinds of REFERENCE work its ops do

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, clock: Clock) -> None:
        raise NotImplementedError

    def extra(self, factor: float) -> dict:
        """Summary metrics of this workload only; `factor` scales its times
        to the nominal speed (see Pace)."""
        return {}


class Closure(Workload):
    """In-process closure_test at paper scale, jobs=1; an item is a seed."""

    item = "closure seed"
    items_per_op = 2  # closure_test needs at least two seeds
    pace_kinds = ("random_draws",)  # simulate_run is most of an op

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.pool = 2
        self.config = simulator.ExperimentConfig(
            **{**README_EXPERIMENT, "n_pulses": 40_000 if tiny else 2_200_000}
        )
        self.sizes = {
            "pulses_per_seed": self.config.n_pulses,
            "bins": 200,
            "peaks": 3,
            "seeds_per_op": self.items_per_op,
            "distinct_ops": self.pool,
        }

    def _closure(self, seed: int):
        return simulator.closure_test(
            dataclasses.replace(self.config, seed=seed),
            self.items_per_op,
            n_bins=200,
            max_index=2,
            jobs=1,
        )

    def setup(self):
        self.op_seeds = [derived_seed(self.seed, 1, k) for k in range(self.pool)]
        # warm-up on the README seed: the same work whatever the workload seed
        self._closure(README_SEED)

    def op(self, i: int, clock: Clock):
        with clock.timed():
            report = self._closure(self.op_seeds[i % self.pool])
        if report.failures or report.n_completed != report.n_seeds:
            raise OpFailed(f"closure failures: {report.failures[:1]}")
        for e in report.estimators:
            if not (math.isfinite(e.mean) and math.isfinite(e.mean_claimed_u)):
                raise WrongOutput(f"{e.name}: non-finite estimate {e.mean!r}")
            if e.name != "gamma2" and abs(e.bias) > 6.0 * e.mean_claimed_u:
                raise WrongOutput(f"{e.name}: bias {e.bias!r} beyond 6 u")


class FitSweep(Workload):
    """Auto-seeded 4-peak fit plus extract_counts on ACCEPTANCE 7a runs.

    An op is a sweep: the fits of `items_per_op` histograms in turn.  Timed
    ops cycle over all the sweeps; `fit_coverage` counts each histogram
    once (a fit is deterministic given its histogram).

    About 0.5 % of fits take 2-4 times the median, and a few hit the
    iteration cap at 10-15 times.  A run holds about as many of them as
    the 10 samples beyond the tail whatever the op size, so the tail sits
    at the edge of the slow ones; a sweep of 32 keeps the step between a
    sweep with a slow fit and one without small, and averages out most of
    the spread of fit times from histogram to histogram.
    """

    item = "fit"
    pace_kinds = ("python", "small_arrays")
    n_peaks = 4
    n_bins = 150
    amp_range = (-0.4, 3.6)

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.items_per_op = 4 if tiny else 32
        self.pool = 2 if tiny else 25
        self.sizes = {
            "pulses_per_run": FIT_EXPERIMENT["n_pulses"],
            "bins": self.n_bins,
            "peaks": self.n_peaks,
            "histograms_per_op": self.items_per_op,
            "distinct_ops": self.pool,
        }
        self.covered: dict[int, bool] = {}

    def setup(self):
        self.cases = []
        for k in range(self.pool * self.items_per_op):
            cfg = simulator.ExperimentConfig(
                **FIT_EXPERIMENT, seed=derived_seed(self.seed, 2, k)
            )
            run = simulator.simulate_run(cfg)
            hist = histogram.build_histogram(
                run.on_amplitudes, self.n_bins, self.amp_range
            )
            truth = [
                (
                    run.tallies.on_counts_by_n[n] * hist.bin_width
                    / (cfg.peak_widths[n] * math.sqrt(2.0 * math.pi)),
                    float(n),
                    cfg.peak_widths[n],
                )
                for n in range(self.n_peaks)
            ]
            self.cases.append((hist, truth))
        histogram.fit_mixture(self.cases[0][0], self.n_peaks)  # warm-up

    def op(self, i: int, clock: Clock):
        first = (i % self.pool) * self.items_per_op
        run_each(lambda k: self._fit(k, clock), range(first, first + self.items_per_op))

    def _fit(self, k: int, clock: Clock):
        hist, truth = self.cases[k]
        self.covered[k] = False
        with clock.timed():
            fit = histogram.fit_mixture(hist, self.n_peaks)
            counts = histogram.extract_counts(fit, hist.bin_width)
        centers = [p.center for p in fit.peaks]
        if len(centers) != self.n_peaks or any(b <= a for a, b in zip(centers, centers[1:])):
            raise WrongOutput(f"fit returned centres {centers!r}")
        if not np.all(np.isfinite(counts.counts)):
            raise WrongOutput("non-finite peak counts")
        # ACCEPTANCE 7a: amplitude, centre and sigma all within 3 u of truth
        self.covered[k] = all(
            abs(got - want) <= 3.0 * u
            for peak, (amp, centre, sigma) in zip(fit.peaks, truth)
            for got, want, u in (
                (peak.amplitude, amp, peak.u_amplitude),
                (peak.center, centre, peak.u_center),
                (peak.sigma, sigma, peak.u_sigma),
            )
        )

    def extra(self, factor: float) -> dict:
        return {"fit_coverage": sum(self.covered.values()) / len(self.covered)}


class Cli(Workload):
    """`pnrcal simulate`, `calibrate` and `calibrate --bypass-fit` in turn.

    Untraced, each command is a fresh interpreter (`python3 -m pnrcal.cli`,
    the `pnrcal` entry point), so its time includes start-up and import.
    Op 0 of each pass runs the README configuration verbatim (seed 42,
    which `calibrate` fails on today); the others pass `--seed` derived
    from the workload seed.  File reads hit the page cache: the CSVs were just
    written, and the benchmark does not drop caches.
    """

    item = "CLI pipeline"
    # start-up and import, CSV write and parse, simulation and fits
    pace_kinds = tuple(REFERENCE)
    commands = ("simulate", "calibrate", "bypass")

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.work = work
        self.in_process = False
        self.pool = 1 if tiny else 2
        self.n_pulses = 40_000 if tiny else 2_200_000
        self.sizes = {"pulses": self.n_pulses, "bins": 200, "peaks": 3,
                      "commands_per_op": 3, "distinct_ops": self.pool}
        self.command_s: dict[str, list[float]] = {c: [] for c in self.commands}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "experiment.ini").write_text(
            README_EXPERIMENT_INI.format(n_pulses=self.n_pulses)
        )
        (self.work / "calibrate.ini").write_text(README_CALIBRATE_INI)
        (self.work / "table.ini").write_text(TABLE_INI)
        self.op_seeds = [derived_seed(self.seed, 3, k) for k in range(self.pool)]
        # warm-up: one full start-up, import and report write
        code, err = self._invoke(["calibrate", "table.ini", "--bypass-fit", "--out", "warm"])
        if code != 0:
            raise OpFailed(f"warm-up bypass exit={code} {err}")

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                os.chdir(cwd)
            return code, err.getvalue().strip()
        proc = subprocess.run(
            [sys.executable, "-m", "pnrcal.cli", *argv],
            cwd=self.work, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stderr.strip()

    def _timed(self, clock: Clock, command: str, argv: list[str]) -> tuple[int, str]:
        before = clock.elapsed
        with clock.timed():
            result = self._invoke(argv)
        self.command_s[command].append(clock.elapsed - before)
        return result

    def op(self, i: int, clock: Clock):
        simulate = ["simulate", "experiment.ini", "--out", "run"]
        seed = README_SEED
        if i % self.pool:
            seed = self.op_seeds[i % self.pool]
            simulate += ["--seed", str(seed)]
        runs = {
            "simulate": self._timed(clock, "simulate", simulate),
            "calibrate": self._timed(clock, "calibrate", ["calibrate", "calibrate.ini", "--out", "rep"]),
            "bypass": self._timed(
                clock, "bypass", ["calibrate", "table.ini", "--bypass-fit", "--out", "rep_table"]
            ),
        }
        for command, (code, err) in runs.items():
            if code != 0:
                last = err.splitlines()[-1] if err else ""
                raise OpFailed(f"{command} exit={code} {last}")
        truth = json.loads((self.work / "run" / "truth.json").read_text())
        if (truth["config"]["n_pulses"], truth["config"]["seed"]) != (self.n_pulses, seed):
            raise WrongOutput("truth.json does not match the configuration")
        doc = json.loads((self.work / "rep" / "calibration.json").read_text())
        g0 = doc["estimates"]["gamma0"]
        gamma_true = README_EXPERIMENT["gamma_true"]
        if not abs(g0["fraction"] - gamma_true) <= CLI_PULL_LIMIT * g0["u_fraction"]:
            # the pipeline's success criterion, not a reference mismatch:
            # a calibration off by more than its u failed like an exit 2
            raise OpFailed(
                f"calibrate gamma0={g0['fraction']!r} u={g0['u_fraction']!r} "
                f"vs gamma_true={gamma_true}"
            )
        doc = json.loads((self.work / "rep_table" / "calibration.json").read_text())
        check_table_digits(doc["estimates"], rendered=True)

    def extra(self, factor: float) -> dict:
        return {f"cli_{c}_s": statistics.median(t) * factor for c, t in self.command_s.items()}


def check_table_digits(estimates: dict, rendered: bool):
    """ACCEPTANCE 1 attainable digits on a calibration.json `estimates`."""
    for name, want in TABLE_GAMMA_PCT.items():
        got = estimates[name]["fraction"] * 100.0
        if abs(got - want) >= 1e-4:
            raise WrongOutput(f"table {name}={got!r} % != {want} %")
        if rendered and estimates[name]["percent_rendered"] != "0.708":
            raise WrongOutput(f"table {name} rendered {estimates[name]['percent_rendered']!r}")
    g2 = estimates["gamma2"]["fraction"] * 100.0
    if abs(g2 - TABLE_GAMMA2_PCT) > 0.01:
        raise WrongOutput(f"table gamma2={g2!r} %")


class Budget(Workload):
    """reports.calibrate_counts on the published table and resamplings.

    Table 0 is the published table itself; the others move every count
    and xi uniformly within its stated u.  Each table is run without and
    with a full covariance (correlated counts within each side): case j is
    table j // 2, with covariance when j is odd.  An op is a batch of
    `items_per_op` consecutive cases, so half its calibrations pass a
    covariance.  A calibration takes about 1 ms, so the machine's pauses of
    a few ms would set the tail of single calibrations.
    """

    item = "calibration"
    pace_kinds = ("python", "small_arrays")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tables = 4 if tiny else 100
        self.items_per_op = 4 if tiny else 50
        self.pool = 2 * self.tables // self.items_per_op
        self.sizes = {"inputs": 7, "estimators": 4, "tables": self.tables,
                      "calibrations_per_op": self.items_per_op,
                      "distinct_ops": self.pool}

    def setup(self):
        rng = np.random.default_rng(derived_seed(self.seed, 4))
        (on, on_u), (off, off_u), (xi, u_xi) = TABLE_ON, TABLE_OFF, TABLE_XI
        self.cases = []
        for k in range(self.tables):
            shift = k > 0
            on_k = on + shift * rng.uniform(-on_u, on_u)
            off_k = off + shift * rng.uniform(-off_u, off_u)
            xi_k = min(xi + shift * rng.uniform(-u_xi, u_xi), 1.0)
            u = np.concatenate([on_u, off_u, [u_xi]])
            corr = np.eye(7)
            for block, rho in ((slice(0, 3), rng.uniform(-0.3, 0.6)),
                               (slice(3, 6), rng.uniform(-0.3, 0.6))):
                corr[block, block] = rho
            np.fill_diagonal(corr, 1.0)
            self.cases.append((
                CountVector(on_k, on_u),
                CountVector(off_k, off_u),
                HeraldPurity(xi_k, u_xi),
                corr * np.outer(u, u),
            ))
        for k in range(self.tables):  # warm-up, each table both ways
            for cov in (None, self.cases[k][3]):
                result = reports.calibrate_counts(*self.cases[k][:3], covariance=cov)
                if k == 0 and cov is None:
                    self.table = {n: e.gamma for n, e in result.estimates.items()}

    def op(self, i: int, clock: Clock):
        first = (i % self.pool) * self.items_per_op
        run_each(lambda j: self._calibrate(j, clock), range(first, first + self.items_per_op))

    def _calibrate(self, j: int, clock: Clock):
        k = j // 2
        on, off, xi, cov = self.cases[k]
        use_cov = j % 2 == 1
        with clock.timed():
            result = reports.calibrate_counts(on, off, xi, covariance=cov if use_cov else None)
        estimates = result.estimates
        for name, e in [*estimates.items(), ("weighted_mean", result.combined)]:
            if not (math.isfinite(e.gamma) and math.isfinite(e.u_gamma) and e.u_gamma > 0):
                raise WrongOutput(f"{name}: gamma={e.gamma!r} u={e.u_gamma!r}")
        if k == 0:
            check_table_digits(
                {
                    n: {
                        "fraction": e.gamma,
                        "percent_rendered": reports.round_to_uncertainty(
                            e.gamma * 100.0, e.u_gamma * 100.0
                        )[0],
                    }
                    for n, e in estimates.items()
                },
                rendered=not use_cov,
            )
        else:
            # inputs moved by at most u each: the estimate moves by at most
            # sum |g_j u_j| to first order
            for name in ("gamma0", "gamma1", "gammaK"):
                reach = np.abs(result.budgets[name].contributions).sum()
                if abs(estimates[name].gamma - self.table[name]) > 1.5 * reach:
                    raise WrongOutput(f"{name} moved beyond its input uncertainties")


class Phase:
    """Op times and failures of one measured loop."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[str] = []
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.wrong)


def run_op(op, i: int, phase: Phase, tracer: Tracer | None = None,
           pace: Pace | None = None) -> None:
    """Run op i, adding its time and any failure to `phase`."""
    clock = Clock(tracer, pace)
    if tracer is not None:
        tracer.op_id = i
    try:
        op(i, clock)
    except WrongOutput as exc:
        phase.wrong.append(f"op={i} {exc}")
    except Exception as exc:  # a failed op is counted, not fatal
        phase.failures.append(f"op={i} {type(exc).__name__}: {' '.join(str(exc).split())}")
    phase.times.append(clock.elapsed)


def measure(op, seconds: float, pool: int, pace: Pace) -> Phase:
    """Run ops 0, 1, ... until `seconds` have passed and MIN_PASSES passes
    over the distinct inputs are complete, or until HARD_CAP_S."""
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= MIN_PASSES * pool and elapsed >= seconds) or (i > 0 and elapsed >= HARD_CAP_S):
            break
        run_op(op, i, phase, pace=pace)
        i += 1
    return phase


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it (the 11th
    largest sample); the largest when there are fewer than 21 samples.
    Returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def provenance(seed: int, workload) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "workload_seed": seed,
        "item": workload.item,
        "sizes": workload.sizes,
        "bytes_note": "bytes written and lines parsed are computed from file and array sizes",
    }


def import_time_s(env: dict, repeats: int) -> float:
    """Median wall time of `import pnrcal` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import pnrcal; print(time.perf_counter() - t)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(samples)


def trace_run(workload, summary: dict, args) -> tuple[dict, list[Phase]]:
    """Per-layer metrics and tracing overhead.

    Runs the op of each distinct input twice in a row, untraced and then
    traced, so that the overhead is measured under the same machine load.
    Also carries over the summary metrics that are not reported for every
    workload.
    """
    import_s = 0.0
    if isinstance(workload, Cli):
        # layer timings need the commands in this process
        workload.in_process = True
        import_s = import_time_s(workload.env, 1 if args.tiny else 5)
    baseline, traced = Phase(), Phase()
    tracer = Tracer()
    for i in range(workload.pool):
        run_op(workload.op, i, baseline)
        tracer.install()
        try:
            run_op(workload.op, i, traced, tracer)
        finally:
            tracer.uninstall()
    if tracer.missing:
        print(f"trace: not found in pnrcal: {' '.join(tracer.missing)}", file=sys.stderr)
    tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")

    metrics = tracer.summary(traced.attempted)
    base_p50 = statistics.median(baseline.times)
    overhead = statistics.median(traced.times) - base_p50
    metrics.update({
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / base_p50,
        "trace.untraced_op_s": sum(baseline.times) / baseline.attempted,
        "cli.import_s": import_s,
        "fail_frac": summary["fail_frac"],
        "fit_coverage": summary.get("fit_coverage", 0.0),
    })
    for command in Cli.commands:
        metrics[f"cli_{command}_s"] = summary.get(f"cli_{command}_s", 0.0)
    return metrics, [baseline, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    work = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    makers = {
        "closure": lambda: Closure(args.seed, args.tiny),
        "fit-sweep": lambda: FitSweep(args.seed, args.tiny),
        "cli": lambda: Cli(args.seed, args.tiny, work),
        "budget": lambda: Budget(args.seed, args.tiny),
    }
    workload = makers[args.workload]()
    pace = Pace(workload.pace_kinds)
    try:
        setups = []
        while not setups or not args.tiny and (
            len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S
        ):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            # as many samples as ticks would take over the same time
            for _ in range(max(1, round(setups[-1] / PACE_EVERY_S))):
                pace.sample()
        first = len(pace.samples)
        setup_factor = pace.factor(0, first)
        pace.sample()
        phase = measure(workload.op, args.seconds, workload.pool, pace)
        phases = [phase]
        factor = pace.factor(first)
        times = [t * factor for t in phase.times]
        tail_s, tail_pct = tail(times)
        summary = {
            "setup_s": statistics.median(setups) * setup_factor,
            "setups": len(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "op_tail_percentile": tail_pct,
            "ops": phase.attempted,
            "items_per_s": workload.items_per_op * len(times) / sum(times),
            "fail_frac": phase.failed / phase.attempted,
            "pace_factor": factor,
            "pace_setup_factor": setup_factor,
            "pace_samples": len(pace.samples),
            "wall_setup_s": statistics.median(setups),
            "wall_op_p50_s": statistics.median(phase.times),
        }
        summary.update(workload.extra(factor))

        if args.trace:
            metrics, traced_phases = trace_run(workload, summary, args)
            phases += traced_phases
        else:
            metrics = {k: summary[k] for k in ("setup_s", "op_p50_s", "op_tail_s", "items_per_s")}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in phases for f in p.failures + p.wrong]
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": not any(p.wrong for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        "summary": summary,
        "failures": failures[:20],
        "op_times": phase.times,
        "reference_times": pace.samples,
        "provenance": provenance(args.seed, workload),
    }
    for line in failures[:5]:
        print(f"failed {line}")
    print("summary " + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
