"""Command-line pipeline: simulate, fit, calibrate, budget, closure.

Config files use INI syntax (key = value under [section] headers); see the
README for the documented keys.  Exit codes are stable: 0 success, 2
usage/config error (a path that cannot be read or written, or a config value
that is not a number, included), 3 fit failure, 4 uninformative estimator
bin.  The commands raise; `main` alone maps each exception to its exit code.
All diagnostics go to stderr as single-line key=value pairs.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import histogram as hg
from . import reports
from . import simulator as sim
from .errors import (
    ConfigError,
    DomainError,
    FitFailureError,
    UninformativeBinError,
)
from .model import CountVector, HeraldPurity, HeraldStats, estimate_xi
from .uncertainty import counting_inputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_UNINFORMATIVE = 4


def _fail(code: int, **kv) -> int:
    print(" ".join(f"{k}={v}" for k, v in kv.items()), file=sys.stderr)
    return code


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return parser


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _number(sec, key: str, convert=float, default=None):
    """`convert` of the INI value at `key`, or `default` when the key is
    absent; a value that does not convert raises ConfigError naming the
    section and the key."""
    if key not in sec:
        return default
    try:
        return convert(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key}: {exc}") from None


def _positive(value: int, flag: str) -> int:
    """`value` of a command-line flag; one that is not positive raises ConfigError."""
    if value <= 0:
        raise ConfigError(f"{flag} must be > 0, got {value}")
    return value


def _experiment_config(path, seed_override=None) -> sim.ExperimentConfig:
    parser = _read_ini(path)
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    sec = parser["experiment"]
    required = [
        "gamma_true",
        "xi_true",
        "herald_prob",
        "background_mean",
        "peak_centers",
        "peak_widths",
        "n_pulses",
    ]
    if seed_override is None:
        required.append("seed")
    for key in required:
        if key not in sec:
            raise ConfigError(f"missing field '{key}' in [experiment]")
    # the pile-up keys are optional: ExperimentConfig holds their defaults
    pileup = {k: _number(sec, k) for k in ("rep_period_us", "detector_recovery_us") if k in sec}
    return sim.ExperimentConfig(
        gamma_true=_number(sec, "gamma_true"),
        xi_true=_number(sec, "xi_true"),
        herald_prob=_number(sec, "herald_prob"),
        background_mean=_number(sec, "background_mean"),
        peak_centers=_number(sec, "peak_centers", _floats),
        peak_widths=_number(sec, "peak_widths", _floats),
        n_pulses=_number(sec, "n_pulses", int),
        seed=int(seed_override) if seed_override is not None else _number(sec, "seed", int),
        **pileup,
    )


def _herald_purity(parser: configparser.ConfigParser) -> HeraldPurity:
    if "herald" not in parser:
        raise ConfigError("missing [herald] section")
    sec = parser["herald"]
    has_counts = "n_on" in sec or "n_off" in sec
    has_xi = "xi" in sec
    if has_counts == has_xi:
        raise ConfigError("provide exactly one of (n_on/n_off) or explicit xi")
    if has_xi:
        return HeraldPurity(_number(sec, "xi"), _number(sec, "u_xi", default=0.0))
    if "n_on" not in sec or "n_off" not in sec:
        raise ConfigError("[herald] needs both n_on and n_off")
    stats = HeraldStats(
        n_on=_number(sec, "n_on"),
        n_off=_number(sec, "n_off"),
        u_on=_number(sec, "u_on"),
        u_off=_number(sec, "u_off"),
    )
    return estimate_xi(stats)


def _counts_from_config(sec, prefix: str) -> CountVector:
    if prefix not in sec or f"{prefix}_u" not in sec:
        raise ConfigError(f"bypass-fit mode needs '{prefix}' and '{prefix}_u' in [counts]")
    return CountVector(
        np.array(_number(sec, prefix, _floats)), np.array(_number(sec, f"{prefix}_u", _floats))
    )


def _amplitude_path(sec, tag: str) -> tuple[str, Path]:
    """Return ('amplitudes'|'histogram', path) for the ON or OFF input."""
    amp_key, hist_key = f"{tag}_amplitudes", f"{tag}_histogram"
    if (amp_key in sec) == (hist_key in sec):
        raise ConfigError(f"provide exactly one of {amp_key} or {hist_key}")
    key = amp_key if amp_key in sec else hist_key
    path = Path(sec[key])
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    return ("amplitudes" if key == amp_key else "histogram", path)


def _read_histogram(source: tuple[str, Path], n_bins: int) -> hg.AmplitudeHistogram:
    """The histogram of one side's input: amplitudes binned, or read as is."""
    kind, path = source
    if kind == "amplitudes":
        return hg.build_histogram(sim.load_amplitudes(path), n_bins)
    return hg.load_histogram_csv(path)


def _run_calibration(args) -> reports.CalibrationResult:
    parser = _read_ini(args.config)
    xi = _herald_purity(parser)

    fit_sec = parser["fit"] if "fit" in parser else {}
    n_peaks = (_number(fit_sec, "n_peaks", int, 3) if args.peaks is None
               else _positive(args.peaks, "--peaks"))
    n_bins = (_number(fit_sec, "bins", int, 200) if args.bins is None
              else _positive(args.bins, "--bins"))

    covariance = count_covariance = fit_quality = None
    if args.bypass_fit:
        if "counts" not in parser:
            raise ConfigError("bypass-fit mode needs a [counts] section")
        sec = parser["counts"]
        on = _counts_from_config(sec, "on")
        off = _counts_from_config(sec, "off")
    else:
        if "inputs" not in parser:
            raise ConfigError("missing [inputs] section")
        sec = parser["inputs"]
        # the OFF input is read and binned in a forked child meanwhile
        on_hist, off_hist = sim.both_sides(
            lambda source: _read_histogram(source, n_bins),
            _amplitude_path(sec, "on"),
            _amplitude_path(sec, "off"),
        )
        on, off, count_covariance, fit_quality = hg.count_photons(on_hist, off_hist, n_peaks)

    if args.covariance:
        names = counting_inputs(on, off, xi).names
        # the file's covariance replaces the fit's
        covariance, count_covariance = reports.load_covariance_csv(args.covariance, names), None

    result = reports.calibrate_counts(on, off, xi, covariance, count_covariance)
    return dataclasses.replace(result, fit_quality=fit_quality)


def cmd_simulate(args) -> int:
    config = _experiment_config(args.config, args.seed)
    run = sim.simulate_run(config)
    out = reports.ensure_dir(args.out)
    sim.save_run(run, config, out)
    t = run.tallies
    print(
        f"pulses={config.n_pulses} heralds={t.true_heralds + t.false_heralds} "
        f"true_heralds={t.true_heralds} false_heralds={t.false_heralds} "
        f"heralded_detections={t.heralded_detections} out={out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    hist = hg.load_histogram_csv(args.histogram)
    fit = hg.fit_mixture(hist, args.peaks)
    counts = hg.extract_counts(fit, hist.bin_width)
    document = {
        "peaks": [
            {
                "amplitude": p.amplitude,
                "center": p.center,
                "sigma": p.sigma,
                "u_amplitude": p.u_amplitude,
                "u_center": p.u_center,
                "u_sigma": p.u_sigma,
            }
            for p in fit.peaks
        ],
        "counts": counts.counts.tolist(),
        "count_uncertainties": counts.uncertainties.tolist(),
        "quality": dataclasses.asdict(fit.quality),
    }
    out = reports.ensure_dir(args.out)
    reports.write_json(document, out / "fit.json")
    print(f"peaks={fit.n_peaks} ratio={fit.quality.ratio:.3e} out={out / 'fit.json'}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    """`calibrate` and `budget`: run the calibration, then write the
    command's reports."""
    result = _run_calibration(args)
    args.write_reports(result, reports.ensure_dir(args.out))
    return EXIT_OK


def _write_calibration(result: reports.CalibrationResult, out: Path) -> None:
    document = reports.calibration_report_json(result)
    reports.write_json(document, out / "calibration.json")
    reports.budget_table_csv(result, out / "budget.csv")
    for name in sorted(result.estimates):
        e = result.estimates[name]
        v, u = reports.round_to_uncertainty(e.gamma * 100.0, e.u_gamma * 100.0)
        flag = " [out-of-range]" if not e.in_range else ""
        print(f"{name} = ({v} +/- {u}) %{flag}")
    v, u = reports.round_to_uncertainty(
        result.combined.gamma * 100.0, result.combined.u_gamma * 100.0
    )
    print(f"weighted_mean = ({v} +/- {u}) %")


def _write_budget(result: reports.CalibrationResult, out: Path) -> None:
    reports.budget_table_csv(result, out / "budget.csv")
    document = reports.calibration_report_json(result)
    reports.write_json({"budgets": document["budgets"], "meta": document["meta"]}, out / "budget.json")
    print(f"targets={sorted(result.budgets)} out={out}")


def cmd_closure(args) -> int:
    if args.seeds < 2:
        return _fail(EXIT_CONFIG, error="usage", detail="need --seeds >= 2")
    config = _experiment_config(args.config, args.seed)
    jobs = (os.cpu_count() or 1) if args.jobs is None else _positive(args.jobs, "--jobs")
    n_bins = 200 if args.bins is None else _positive(args.bins, "--bins")
    report = sim.closure_test(config, args.seeds, n_bins=n_bins, jobs=jobs)
    out = reports.ensure_dir(args.out)
    reports.write_json(reports.closure_report_json(report), out / "closure.json")
    table = reports.closure_report_table(report)
    (out / "closure.txt").write_text(table + "\n")
    print(table)
    if report.n_completed < 0.9 * report.n_seeds:
        return _fail(EXIT_FIT, error="closure", detail="fewer than 90% of seeds completed")
    return EXIT_OK


def _oneline(exc: Exception) -> str:
    return '"' + " ".join(str(exc).split()) + '"'


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnrcal",
        description="Calibration toolkit for photon-number-resolving detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic ON/OFF run")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="run")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a Gaussian mixture to a histogram CSV")
    p.add_argument("histogram")
    p.add_argument("--peaks", type=int, default=3)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_fit)

    for name, write in (("calibrate", _write_calibration), ("budget", _write_budget)):
        p = sub.add_parser(name, help=f"{name} from a pipeline config")
        p.add_argument("config")
        p.add_argument("--bypass-fit", action="store_true")
        p.add_argument("--bins", type=int, default=None)
        p.add_argument("--peaks", type=int, default=None)
        p.add_argument("--covariance", default=None)
        p.add_argument("--out", default="reports")
        p.set_defaults(func=cmd_calibrate, write_reports=write)

    p = sub.add_parser("closure", help="run the end-to-end closure test")
    p.add_argument("config")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default="closure")
    p.set_defaults(func=cmd_closure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # subclasses DomainError, so it comes first
    except UninformativeBinError as exc:
        return _fail(EXIT_UNINFORMATIVE, error="uninformative_bin", detail=_oneline(exc))
    # OSError: a path that cannot be read or written.  No plain ValueError:
    # numpy's LinAlgError is one, and it is not a config error.
    except (ConfigError, DomainError, configparser.Error, OSError) as exc:
        return _fail(EXIT_CONFIG, error="config", detail=_oneline(exc))
    except FitFailureError as exc:
        # a failed fit, or a gate on it, with its keys (side, reason, ...)
        return _fail(EXIT_FIT, error="fit", **exc.keys, detail=_oneline(exc))


if __name__ == "__main__":
    sys.exit(main())
