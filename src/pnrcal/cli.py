"""Command-line pipeline: simulate, fit, calibrate, budget, closure.

Config files use INI syntax (key = value under [section] headers); see the
README for the documented keys.  Exit codes are stable: 0 success, 2
usage/config error (a path that cannot be read or written included), 3 fit
failure, 4 uninformative estimator bin.  All
diagnostics go to stderr as single-line key=value pairs.
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
    InitializationError,
    UninformativeBinError,
)
from .model import CountVector, HeraldPurity, HeraldStats, estimate_xi
from .uncertainty import counting_inputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_UNINFORMATIVE = 4
# largest fit chi2/TSS ratio `calibrate` accepts (ACCEPTANCE 7b); good fits sit near 1e-8
MAX_QUALITY_RATIO = 1e-4


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
    return sim.ExperimentConfig(
        gamma_true=sec.getfloat("gamma_true"),
        xi_true=sec.getfloat("xi_true"),
        herald_prob=sec.getfloat("herald_prob"),
        background_mean=sec.getfloat("background_mean"),
        peak_centers=tuple(_floats(sec["peak_centers"])),
        peak_widths=tuple(_floats(sec["peak_widths"])),
        n_pulses=sec.getint("n_pulses"),
        rep_period_us=sec.getfloat("rep_period_us", fallback=25.0),
        detector_recovery_us=sec.getfloat("detector_recovery_us", fallback=10.4),
        seed=int(seed_override) if seed_override is not None else sec.getint("seed"),
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
        return HeraldPurity(sec.getfloat("xi"), sec.getfloat("u_xi", fallback=0.0))
    stats = HeraldStats(
        n_on=sec.getfloat("n_on"),
        n_off=sec.getfloat("n_off"),
        u_on=sec.getfloat("u_on", fallback=None),
        u_off=sec.getfloat("u_off", fallback=None),
    )
    return estimate_xi(stats)


def _counts_from_config(sec, prefix: str) -> CountVector:
    if prefix not in sec or f"{prefix}_u" not in sec:
        raise ConfigError(f"bypass-fit mode needs '{prefix}' and '{prefix}_u' in [counts]")
    return CountVector(np.array(_floats(sec[prefix])), np.array(_floats(sec[f"{prefix}_u"])))


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


def _fit_counts(side: str, hist: hg.AmplitudeHistogram, n_peaks: int):
    counts, fit, peaks_used = hg.robust_peak_counts(hist, n_peaks)
    ratio = fit.quality.ratio
    if not ratio <= MAX_QUALITY_RATIO:
        detail = f"{side} fit quality ratio {ratio:.3g} > {MAX_QUALITY_RATIO:g}"
        raise FitFailureError(detail, side=side, reason="quality")
    return counts, {**dataclasses.asdict(fit.quality), "peaks_used": peaks_used}


def _run_calibration(args) -> reports.CalibrationResult:
    parser = _read_ini(args.config)
    xi = _herald_purity(parser)

    fit_sec = parser["fit"] if "fit" in parser else {}
    n_peaks = args.peaks or int(fit_sec.get("n_peaks", 3))
    n_bins = args.bins or int(fit_sec.get("bins", 200))

    fit_quality = None
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
        on, q_on = _fit_counts("on", on_hist, n_peaks)
        off, q_off = _fit_counts("off", off_hist, n_peaks)
        fit_quality = {"on": q_on, "off": q_off}

    covariance = None
    if args.covariance:
        names = counting_inputs(on, off, xi).names
        covariance = reports.load_covariance_csv(args.covariance, names)

    result = reports.calibrate_counts(on, off, xi, covariance=covariance)
    return dataclasses.replace(result, fit_quality=fit_quality)


def cmd_simulate(args) -> int:
    try:
        config = _experiment_config(args.config, args.seed)
        run = sim.simulate_run(config)
    except (ConfigError, DomainError, configparser.Error) as exc:
        return _fail(EXIT_CONFIG, error="config", detail=_oneline(exc))
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
    try:
        hist = hg.load_histogram_csv(args.histogram)
        fit = hg.fit_mixture(hist, args.peaks)
    except (DomainError, ConfigError) as exc:
        return _fail(EXIT_CONFIG, error="config", detail=_oneline(exc))
    except (FitFailureError, InitializationError) as exc:
        return _fail(EXIT_FIT, error="fit", detail=_oneline(exc))
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
    """`calibrate` and `budget`: run the calibration, map each failure to
    its exit code and stderr line, then write the command's reports."""
    try:
        result = _run_calibration(args)
    except UninformativeBinError as exc:
        return _fail(EXIT_UNINFORMATIVE, error="uninformative_bin", detail=_oneline(exc))
    except (ConfigError, DomainError, configparser.Error) as exc:
        return _fail(EXIT_CONFIG, error="config", detail=_oneline(exc))
    except FitFailureError as exc:
        # robust_peak_counts turns a failed seeding into FitFailureError
        return _fail(EXIT_FIT, error="fit", **exc.keys, detail=_oneline(exc))
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
    try:
        config = _experiment_config(args.config, args.seed)
    except (ConfigError, DomainError, configparser.Error) as exc:
        return _fail(EXIT_CONFIG, error="config", detail=_oneline(exc))
    jobs = args.jobs or os.cpu_count() or 1
    report = sim.closure_test(
        config, args.seeds, n_bins=args.bins or 200, jobs=jobs
    )
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
    except OSError as exc:
        # a path that cannot be read or written, in any command
        return _fail(EXIT_CONFIG, error="config", detail=_oneline(exc))


if __name__ == "__main__":
    sys.exit(main())
