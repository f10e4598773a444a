import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import pnrcal
from pnrcal.cli import (
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_OK,
    EXIT_UNINFORMATIVE,
    _run_calibration,
    build_parser,
    main,
)
from pnrcal.histogram import (
    MAX_DEVIANCE_PER_DOF,
    AmplitudeHistogram,
    build_histogram,
    count_photons,
    save_histogram_csv,
)
from pnrcal.model import HeraldPurity, HeraldStats, estimate_xi
from pnrcal.reports import calibrate_counts, strip_timestamps
from pnrcal.simulator import ExperimentConfig, load_amplitudes, save_run, simulate_run

TABLE_COUNTS = """\
[herald]
xi = 0.98794
u_xi = 7e-5

[counts]
on = 5.069e6 5.0200e4 118
on_u = 1.4e4 200 6
off = 5.103e6 1.4600e4 23.9
off_u = 1.4e4 150 1.5
"""

EXPERIMENT = """\
[experiment]
gamma_true = 0.3
xi_true = 0.95
herald_prob = 0.8
background_mean = 0.3
peak_centers = 0.0 1.0 2.0 3.0
peak_widths = 0.08 0.08 0.08 0.08
n_pulses = 120000
seed = 4242
"""

ACCEPTANCE9_EXPERIMENT = """\
[experiment]
gamma_true = 0.1
xi_true = 0.95
herald_prob = 0.5
background_mean = 0.05
peak_centers = 0 1 2 3
peak_widths = 0.08 0.08 0.08 0.08
n_pulses = 20000
seed = 3
"""

# the directory holding the pnrcal package, for fresh interpreters
SRC = str(Path(pnrcal.__file__).resolve().parent.parent)


def fresh_python(code, cwd):
    """Run `python -c code` in a new interpreter (warnings as errors)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSimulate:
    def test_writes_run(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.ini", EXPERIMENT)
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "on.csv").is_file()
        assert (out / "off.csv").is_file()
        truth = json.loads((out / "truth.json").read_text())
        assert truth["config"]["seed"] == 4242
        stdout = capsys.readouterr().out
        assert "heralds=" in stdout

    def test_seed_override(self, tmp_path):
        cfg = write(tmp_path, "exp.ini", EXPERIMENT)
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--seed", "7", "--out", str(out)]) == EXIT_OK
        truth = json.loads((out / "truth.json").read_text())
        assert truth["config"]["seed"] == 7

    def test_missing_field_exit_2(self, tmp_path, capsys):
        broken = EXPERIMENT.replace("seed = 4242\n", "")
        cfg = write(tmp_path, "exp.ini", broken)
        assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_pileup_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.ini", EXPERIMENT + "rep_period_us = 5.0\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "pile-up" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path):
        # an --out that is a file, and an off.csv that is a directory (the
        # OFF file is written by a child process): one stderr line each
        exp = write(tmp_path, "exp.ini", ACCEPTANCE9_EXPERIMENT.replace("20000", "2000"))
        cal = write(tmp_path, "cal.ini", TABLE_COUNTS)
        (tmp_path / "run" / "off.csv").mkdir(parents=True)
        cases = (
            (["simulate", exp, "--out", cal], cal),
            (["simulate", exp, "--out", "run"], "off.csv"),
            (["calibrate", cal, "--bypass-fit", "--out", exp], exp),
        )
        for argv, path in cases:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "pnrcal.cli", *argv],
                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_CONFIG, (argv, proc.stderr)
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error=config detail="), lines
            assert path in lines[0]


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    """Run scripts/<name> in a new interpreter (warnings as errors); its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-W", "error", str(SCRIPTS / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True).stdout


class TestScripts:
    def test_published_calibration(self, tmp_path, capsys):
        # the script renders gamma0 as `calibrate` does on the same table
        cfg = write(tmp_path, "cal.ini", TABLE_COUNTS)
        assert main(["calibrate", cfg, "--bypass-fit", "--out", str(tmp_path / "rep")]) == EXIT_OK
        rendered = {line.split(" = ")[0]: line.split(" = ")[1]
                    for line in capsys.readouterr().out.splitlines()}
        out = run_script("reproduce_published_calibration.py", cwd=tmp_path)
        assert f"  gamma0   {rendered['gamma0']}" in out.splitlines()

    def test_run_closure(self, tmp_path):
        out = run_script("run_closure.py", "--seeds", "2", "--pulses", "200000", "--jobs", "1",
                         cwd=tmp_path)
        rows = [line.split()[0] for line in out.splitlines()[2:]]
        assert rows[:5] == ["gamma0", "gamma1", "gamma2", "gammaK", "weighted_mean"]


class TestNoScipyWithoutFit:
    def test_simulate_and_bypass_import_no_scipy(self, tmp_path):
        # commands that never fit do not pay for importing scipy
        exp = write(tmp_path, "exp.ini", ACCEPTANCE9_EXPERIMENT.replace("20000", "2000"))
        cal = write(tmp_path, "cal.ini", TABLE_COUNTS)
        for argv in (["simulate", exp, "--out", "run"],
                     ["calibrate", cal, "--bypass-fit", "--out", "rep"]):
            proc = fresh_python(
                "import sys\nfrom pnrcal.cli import main\n"
                f"code = main({argv!r})\n"
                "print(code, [m for m in ('scipy.optimize', 'scipy.special') "
                "if m in sys.modules])",
                tmp_path,
            )
            assert proc.stdout.splitlines()[-1] == "0 []", (argv, proc.stdout)


class TestFit:
    def test_fit_histogram(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [rng.normal(0.0, 0.08, 100_000), rng.normal(1.0, 0.09, 2_000)]
        )
        hist = build_histogram(samples, 160, (-0.5, 1.5))
        path = tmp_path / "hist.csv"
        save_histogram_csv(hist, path)
        assert main(["fit", str(path), "--peaks", "2",
                     "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert len(doc["peaks"]) == 2
        assert abs(doc["counts"][0] - 100_000) < 5 * np.sqrt(100_000)
        assert doc["quality"]["ratio"] < 1e-2
        assert doc["diagnostics"]["evaluations"] > 0
        assert doc["diagnostics"]["finish_kept"] is True
        # a second run writes the same bytes
        assert main(["fit", str(path), "--peaks", "2",
                     "--out", str(tmp_path / "again")]) == EXIT_OK
        assert (tmp_path / "again" / "fit.json").read_bytes() == (tmp_path / "fit.json").read_bytes()

    def test_missing_file_exit_2(self, tmp_path):
        # a missing file, then a row that is not two numbers
        malformed = write(tmp_path, "bad.csv", "bin_center,count\n0.0,1\n0.5,x\n")
        for path in (str(tmp_path / "nope.csv"), malformed):
            assert main(["fit", path]) == EXIT_CONFIG

    def test_impossible_peaks_exit_3(self, tmp_path):
        path = _impossible_peaks_histogram(tmp_path)
        code = main(["fit", path, "--peaks", "5", "--out", str(tmp_path)])
        assert code in (EXIT_CONFIG, EXIT_FIT)
        assert code != EXIT_OK

    def test_not_converged_exit_3_with_residual_norm(self, tmp_path, capsys, monkeypatch):
        # every solve stops at its evaluation cap (MINPACK's ier = 5)
        import scipy.optimize

        solve = scipy.optimize.leastsq
        monkeypatch.setattr(scipy.optimize, "leastsq",
                            lambda *args, **kwargs: solve(*args, **kwargs)[:4] + (5,))
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [rng.normal(0.0, 0.08, 100_000), rng.normal(1.0, 0.09, 2_000)]
        )
        path = tmp_path / "hist.csv"
        save_histogram_csv(build_histogram(samples, 160, (-0.5, 1.5)), path)
        assert main(["fit", str(path), "--peaks", "2", "--out", str(tmp_path)]) == EXIT_FIT
        keys = capsys.readouterr().err.split(" detail=")[0].split()
        assert keys[:2] == ["error=fit", "reason=convergence"] and len(keys) == 3
        assert keys[2].startswith("residual_norm=") and float(keys[2].split("=")[1]) > 0


class TestCalibrateBypass:
    def test_table_values(self, tmp_path, capsys):
        cfg = write(tmp_path, "cal.ini", TABLE_COUNTS)
        out = tmp_path / "rep"
        code = main(["calibrate", cfg, "--bypass-fit", "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "gamma0 = (0.708 +/- 0.006) %" in stdout
        assert "weighted_mean" in stdout
        doc = json.loads((out / "calibration.json").read_text())
        assert abs(doc["estimates"]["gamma0"]["fraction"] * 100 - 0.7077) < 1e-3
        assert (out / "budget.csv").is_file()

    def test_identical_counts_flagged_zero(self, tmp_path, capsys):
        text = TABLE_COUNTS.replace(
            "on = 5.069e6 5.0200e4 118", "on = 5.103e6 1.4600e4 23.9"
        ).replace("on_u = 1.4e4 200 6", "on_u = 1.4e4 150 1.5")
        cfg = write(tmp_path, "cal.ini", text)
        assert main(["calibrate", cfg, "--bypass-fit",
                     "--out", str(tmp_path / "rep")]) == EXIT_OK
        doc = json.loads((tmp_path / "rep" / "calibration.json").read_text())
        for e in doc["estimates"].values():
            assert abs(e["fraction"]) < 1e-12

    def test_uninformative_bin_exit_4(self, tmp_path, capsys):
        cases = [
            # B(0) = B(1): the gamma_1 denominator vanishes
            {"off = 5.103e6 1.4600e4 23.9": "off = 0.5 0.5 0",
             "off_u = 1.4e4 150 1.5": "off_u = 0 0 0"},
            # both fits dropped the n=2 peak: no counts on either side
            {"on = 5.069e6 5.0200e4 118": "on = 5.069e6 5.02e4 0",
             "on_u = 1.4e4 200 6": "on_u = 1.4e4 200 0",
             "off = 5.103e6 1.4600e4 23.9": "off = 5.103e6 1.46e4 0",
             "off_u = 1.4e4 150 1.5": "off_u = 1.4e4 150 0"},
        ]
        for k, replacements in enumerate(cases):
            text = TABLE_COUNTS
            for old, new in replacements.items():
                text = text.replace(old, new)
            cfg = write(tmp_path, f"cal{k}.ini", text)
            code = main(["calibrate", cfg, "--bypass-fit",
                         "--out", str(tmp_path / f"rep{k}")])
            assert code == EXIT_UNINFORMATIVE, k
            assert "uninformative" in capsys.readouterr().err

    def test_missing_counts_exit_2(self, tmp_path):
        cfg = write(tmp_path, "cal.ini", "[herald]\nxi = 0.9\n")
        assert main(["calibrate", cfg, "--bypass-fit",
                     "--out", str(tmp_path / "rep")]) == EXIT_CONFIG

    def test_both_xi_and_counts_exit_2(self, tmp_path):
        text = TABLE_COUNTS.replace("[herald]\n", "[herald]\nn_on = 10\nn_off = 1\n")
        cfg = write(tmp_path, "cal.ini", text)
        assert main(["calibrate", cfg, "--bypass-fit",
                     "--out", str(tmp_path / "rep")]) == EXIT_CONFIG

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = write(tmp_path, "cal.ini", TABLE_COUNTS)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["calibrate", cfg, "--bypass-fit", "--out", str(out1)]) == EXIT_OK
        assert main(["calibrate", cfg, "--bypass-fit", "--out", str(out2)]) == EXIT_OK
        d1 = strip_timestamps(json.loads((out1 / "calibration.json").read_text()))
        d2 = strip_timestamps(json.loads((out2 / "calibration.json").read_text()))
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        assert (out1 / "budget.csv").read_bytes() == (out2 / "budget.csv").read_bytes()

    def test_covariance_flag_changes_combined(self, tmp_path):
        cfg = write(tmp_path, "cal.ini", TABLE_COUNTS)
        names = ["C_on_0", "C_on_1", "C_on_2", "C_off_0", "C_off_1", "C_off_2", "xi"]
        u = [1.4e4, 200.0, 6.0, 1.4e4, 150.0, 1.5, 7e-5]
        cov = np.diag(np.array(u) ** 2)
        # correlate the two pedestal counts (shared pump-power drift)
        cov[0, 3] = cov[3, 0] = 0.9 * u[0] * u[3]
        cov_path = tmp_path / "cov.csv"
        with open(cov_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["quantity"] + names)
            for name, row in zip(names, cov):
                w.writerow([name] + [repr(float(v)) for v in row])
        out_d = tmp_path / "diag"
        out_c = tmp_path / "corr"
        assert main(["calibrate", cfg, "--bypass-fit", "--out", str(out_d)]) == EXIT_OK
        assert main(["calibrate", cfg, "--bypass-fit", "--covariance",
                     str(cov_path), "--out", str(out_c)]) == EXIT_OK
        d = json.loads((out_d / "calibration.json").read_text())
        c = json.loads((out_c / "calibration.json").read_text())
        ud = d["estimates"]["gamma0"]["u_fraction"]
        uc = c["estimates"]["gamma0"]["u_fraction"]
        assert uc != pytest.approx(ud, rel=1e-6)

    def test_bad_covariance_file_exit_2(self, tmp_path, capsys):
        # a missing file, a value that is not a number, a row one value short
        cfg = write(tmp_path, "cal.ini", TABLE_COUNTS)
        names = ["C_on_0", "C_on_1", "C_on_2", "C_off_0", "C_off_1", "C_off_2", "xi"]
        bad = []
        for cell, width in (("abc", len(names)), ("0.0", len(names) - 1)):
            rows = [",".join(["quantity"] + names)] + [
                ",".join([n] + [cell if n == "C_on_1" else "0.0"] * width)
                for n in names
            ]
            bad.append(write(tmp_path, f"cov{width}.csv", "\n".join(rows) + "\n"))
        for cov in [str(tmp_path / "missing.csv")] + bad:
            code = main(["calibrate", cfg, "--bypass-fit", "--covariance", cov,
                         "--out", str(tmp_path / "rep")])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "error=config" in err and cov in err


class TestCalibrateEndToEnd:
    def test_simulate_then_calibrate(self, tmp_path, capsys):
        exp = write(tmp_path, "exp.ini", EXPERIMENT)
        run = tmp_path / "run"
        assert main(["simulate", exp, "--out", str(run)]) == EXIT_OK
        cal = write(
            tmp_path,
            "cal.ini",
            "[herald]\nxi = 0.95\nu_xi = 1e-4\n\n"
            "[inputs]\n"
            f"on_amplitudes = {run / 'on.csv'}\n"
            f"off_amplitudes = {run / 'off.csv'}\n\n"
            "[fit]\nn_peaks = 6\nbins = 150\n",
        )
        out = tmp_path / "rep"
        assert main(["calibrate", cal, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "calibration.json").read_text())
        g0 = doc["estimates"]["gamma0"]
        assert abs(g0["fraction"] - 0.3) < 4 * g0["u_fraction"]
        # the fitted comb, shared by both sides, and each side's deviance
        for side in ("on", "off"):
            comb = doc["fit_quality"][side]
            assert abs(comb["x0"]) < 0.01 and abs(comb["g"] - 1.0) < 0.01
            assert 0.07 < comb["sigma0"] < 0.09 and 0.07 < comb["sigma1"] < 0.09
            assert comb["deviance_per_dof"] < MAX_DEVIANCE_PER_DOF
            assert comb["deviance"] == comb["deviance_per_dof"] * comb["degrees_of_freedom"]
            assert comb["evaluations"] > 0
            assert "window_edges" not in comb and "condition_number" not in comb
        on, off = (doc["fit_quality"][side] for side in ("on", "off"))
        for key in ("x0", "g", "sigma0", "sigma1", "evaluations"):
            assert on[key] == off[key], key
        assert on["deviance"] != off["deviance"]
        assert doc["inputs"]["has_covariance"]

    def test_inputs_reports_identical_across_processes(self, tmp_path):
        # ACCEPTANCE 9's run, calibrated with [inputs] in two interpreters
        exp = write(tmp_path, "exp.ini", ACCEPTANCE9_EXPERIMENT)
        assert main(["simulate", exp, "--out", str(tmp_path / "run")]) == EXIT_OK
        cal = write(
            tmp_path,
            "cal.ini",
            "[herald]\nxi = 0.95\nu_xi = 1e-4\n\n[inputs]\n"
            "on_amplitudes = run/on.csv\noff_amplitudes = run/off.csv\n\n"
            "[fit]\nn_peaks = 3\nbins = 200\n",
        )
        reports = []
        for out in ("r1", "r2"):
            argv = ["calibrate", cal, "--out", out]
            fresh_python(f"from pnrcal.cli import main; assert main({argv!r}) == 0", tmp_path)
            doc = json.loads((tmp_path / out / "calibration.json").read_text())
            reports.append((json.dumps(strip_timestamps(doc), sort_keys=True),
                            (tmp_path / out / "budget.csv").read_bytes()))
        assert reports[0] == reports[1]

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        # a missing file, then a file holding a value that is not a number
        malformed = write(tmp_path, "on.csv", "amplitude\n0.1\nabc\n")
        for on_csv in (tmp_path / "missing.csv", malformed):
            cal = write(
                tmp_path,
                "cal.ini",
                "[herald]\nxi = 0.95\n\n[inputs]\n"
                f"on_amplitudes = {on_csv}\n"
                f"off_amplitudes = {on_csv}\n",
            )
            code = main(["calibrate", cal, "--out", str(tmp_path / "rep")])
            assert code == EXIT_CONFIG
            assert "error=config" in capsys.readouterr().err

    def test_malformed_off_csv_exit_2(self, tmp_path, capfd):
        # the OFF input is read in a child process; its error comes out here
        exp = write(tmp_path, "exp.ini", ACCEPTANCE9_EXPERIMENT)
        assert main(["simulate", exp, "--out", str(tmp_path / "run")]) == EXIT_OK
        capfd.readouterr()
        on = tmp_path / "run" / "on.csv"
        off = write(tmp_path, "off.csv", "amplitude\n0.1\nabc\n")
        cal = write(
            tmp_path,
            "cal.ini",
            f"[herald]\nxi = 0.95\n\n[inputs]\non_amplitudes = {on}\noff_amplitudes = {off}\n",
        )
        assert main(["calibrate", cal, "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=config"), lines
        assert f"{off}: line 3" in lines[0]
        assert multiprocessing.active_children() == []

    def test_equals_serial_chain_bit_for_bit(self, tmp_path):
        exp = write(tmp_path, "exp.ini", ACCEPTANCE9_EXPERIMENT)
        assert main(["simulate", exp, "--out", str(tmp_path / "run")]) == EXIT_OK
        paths = {side: tmp_path / "run" / f"{side}.csv" for side in ("on", "off")}
        cal = write(
            tmp_path,
            "cal.ini",
            "[herald]\nxi = 0.95\nu_xi = 1e-4\n\n[inputs]\n"
            f"on_amplitudes = {paths['on']}\noff_amplitudes = {paths['off']}\n\n"
            "[fit]\nn_peaks = 3\nbins = 200\n",
        )
        result = _run_calibration(build_parser().parse_args(["calibrate", cal]))
        assert multiprocessing.active_children() == []

        on, off = (build_histogram(load_amplitudes(paths[side]), 200) for side in ("on", "off"))
        on_counts, off_counts, covariance, diagnostics = count_photons(on, off, 3)
        serial = calibrate_counts(on_counts, off_counts, HeraldPurity(0.95, 1e-4),
                                  count_covariance=covariance)

        assert result.fit_quality == diagnostics
        assert result.inputs.covariance.tobytes() == serial.inputs.covariance.tobytes()

        assert result.estimates == serial.estimates
        assert result.combined == serial.combined
        assert result.budgets.keys() == serial.budgets.keys()
        for name, budget in serial.budgets.items():
            got = result.budgets[name]
            assert (got.names, got.combined) == (budget.names, budget.combined)
            assert got.contributions.tobytes() == budget.contributions.tobytes()

    def test_joint_covariance_reaches_budget(self, tmp_path):
        # the comb fit correlates the ON and OFF counts through the shared
        # response; --covariance replaces its covariance whole
        exp = write(tmp_path, "exp.ini", ACCEPTANCE9_EXPERIMENT)
        assert main(["simulate", exp, "--out", str(tmp_path / "run")]) == EXIT_OK
        cal = write(
            tmp_path,
            "cal.ini",
            "[herald]\nxi = 0.95\nu_xi = 1e-4\n\n[inputs]\n"
            f"on_amplitudes = {tmp_path / 'run' / 'on.csv'}\n"
            f"off_amplitudes = {tmp_path / 'run' / 'off.csv'}\n\n"
            "[fit]\nn_peaks = 3\nbins = 200\n",
        )
        fitted = _run_calibration(build_parser().parse_args(["calibrate", cal])).inputs
        k = (fitted.size - 1) // 2
        assert fitted.covariance[:k, k:2 * k].any()
        assert not fitted.covariance[-1, :-1].any()
        assert fitted.covariance[-1, -1] == 1e-8
        cov = np.diag(fitted.uncertainties**2)
        cov_path = tmp_path / "cov.csv"
        with open(cov_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["quantity", *fitted.names])
            for name, row in zip(fitted.names, cov):
                w.writerow([name] + [repr(float(v)) for v in row])
        given = _run_calibration(build_parser().parse_args(
            ["calibrate", cal, "--covariance", str(cov_path)])).inputs
        assert np.array_equal(given.covariance, cov)
        assert np.array_equal(given.values, fitted.values)


class TestFitQualityGate:
    @staticmethod
    def histogram_csv(tmp_path, name, events):
        # expected bin contents of Gaussian peaks (sigma 0.08) at 0, 1, 2
        edges = np.linspace(-0.5, 2.5, 61)
        cdf = ndtr((edges - np.arange(3)[:, None]) / 0.08)
        counts = np.round(np.asarray(events, dtype=float) @ np.diff(cdf, axis=1))
        path = tmp_path / name
        save_histogram_csv(AmplitudeHistogram(edges, counts), path)
        return path

    def test_poor_fit_exit_3(self, tmp_path, capsys):
        # a 2-peak comb describes the ON histogram; the OFF histogram's
        # third peak is left unfitted, a deviance per dof of about 1600
        on = self.histogram_csv(tmp_path, "on.csv", [4000, 1000, 0])
        for off_events, code in (([4000, 1000, 0], EXIT_OK),
                                 ([4000, 1000, 1000], EXIT_FIT)):
            off = self.histogram_csv(tmp_path, "off.csv", off_events)
            cal = write(
                tmp_path,
                "cal.ini",
                "[herald]\nxi = 0.95\n\n[inputs]\n"
                f"on_histogram = {on}\noff_histogram = {off}\n\n"
                "[fit]\nn_peaks = 2\n",
            )
            assert main(["calibrate", cal, "--out", str(tmp_path / "rep")]) == code
            err = capsys.readouterr().err
            if code == EXIT_FIT:
                assert "error=fit" in err and "off deviance per degree of freedom" in err
                per_dof = float(err.split("freedom ")[1].split()[0])
                assert per_dof > 100 * MAX_DEVIANCE_PER_DOF
                # the side and reason come as keys before the detail
                keys = err.split(" detail=")[0].split()
                assert keys == ["error=fit", "side=off", "reason=quality"]


# the README [experiment] and [herald]
README_EXPERIMENT = ExperimentConfig(
    gamma_true=0.00709, xi_true=0.98794, herald_prob=0.5, background_mean=0.00286,
    peak_centers=(0.0, 1.0, 2.0, 3.0), peak_widths=(0.08,) * 4,
    n_pulses=2_200_000, seed=42,
)
README_HERALD = "[herald]\nn_on = 1000000\nn_off = 12060\n"


class TestReadmePipeline:
    """The README pipeline against gamma_true = 0.709 %: pulse-by-pulse
    amplitudes, 200 bins, 3 photon numbers and the README [herald]."""

    def test_small_scale_seed_42(self, tmp_path):
        # 40k pulses: the free mixture fit took seconds and gave gamma0 = 98 %
        cfg = dataclasses.replace(README_EXPERIMENT, n_pulses=40_000)
        save_run(simulate_run(cfg), cfg, tmp_path / "run")
        cal = write(
            tmp_path,
            "cal.ini",
            README_HERALD + "\n[inputs]\n"
            f"on_amplitudes = {tmp_path / 'run' / 'on.csv'}\n"
            f"off_amplitudes = {tmp_path / 'run' / 'off.csv'}\n\n"
            "[fit]\nn_peaks = 3\nbins = 200\n",
        )
        result = _run_calibration(build_parser().parse_args(["calibrate", cal]))
        g0 = result.estimates["gamma0"]
        assert abs(g0.gamma - cfg.gamma_true) <= 5.0 * g0.u_gamma, g0

    @pytest.mark.parametrize("seed", [42, 1234, 2550856185, 707658275])
    def test_paper_scale_seeds(self, seed):
        # the mixture fit split n=1 at 1234 and 2550856185, and failed
        # its quality gate at 707658275
        run = simulate_run(dataclasses.replace(README_EXPERIMENT, seed=seed))
        on, off = (build_histogram(a, 200) for a in (run.on_amplitudes, run.off_amplitudes))
        on_counts, off_counts, covariance, _ = count_photons(on, off, 3)
        xi = estimate_xi(HeraldStats(n_on=1_000_000, n_off=12060))
        estimates = calibrate_counts(on_counts, off_counts, xi,
                                     count_covariance=covariance).estimates
        for name in ("gamma0", "gamma1", "gamma2"):
            e = estimates[name]
            assert abs(e.gamma - README_EXPERIMENT.gamma_true) <= 3.0 * e.u_gamma, (name, e)


class TestOverlappingPeaks:
    def test_counted_within_u(self, tmp_path, capsys):
        # peaks 0.4 apart at sigma 0.08: 5 widths, where counting between
        # the comb midpoints failed
        edges = np.linspace(-0.5, 1.5, 101)
        paths, truth = {}, {"on": [40000, 10000], "off": [40000, 3000]}
        for side, events in truth.items():
            cdf = ndtr((edges - 0.4 * np.arange(2)[:, None]) / 0.08)
            counts = np.round(np.asarray(events, dtype=float) @ np.diff(cdf, axis=1))
            paths[side] = tmp_path / f"{side}.csv"
            save_histogram_csv(AmplitudeHistogram(edges, counts), paths[side])
        cal = write(
            tmp_path,
            "cal.ini",
            "[herald]\nxi = 0.95\n\n[inputs]\n"
            f"on_histogram = {paths['on']}\noff_histogram = {paths['off']}\n\n"
            "[fit]\nn_peaks = 2\n",
        )
        assert main(["calibrate", cal, "--out", str(tmp_path / "rep")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        inputs = json.loads((tmp_path / "rep" / "calibration.json").read_text())["inputs"]
        got = dict(zip(inputs["names"], zip(inputs["values"], inputs["uncertainties"])))
        for side, events in truth.items():
            for n, want in enumerate(events):
                value, u = got[f"C_{side}_{n}"]
                assert abs(value - want) < u, (side, n, value, u)


class TestBudget:
    def test_budget_outputs(self, tmp_path, capsys):
        cfg = write(tmp_path, "cal.ini", TABLE_COUNTS)
        out = tmp_path / "bud"
        assert main(["budget", cfg, "--bypass-fit", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "budget.json").read_text())
        assert "gamma0" in doc["budgets"]
        with open(out / "budget.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "quantity"
        assert any(r[0] == "xi" for r in rows)


class TestClosure:
    def test_small_closure(self, tmp_path, capsys):
        small = EXPERIMENT.replace("n_pulses = 120000", "n_pulses = 40000")
        cfg = write(tmp_path, "exp.ini", small)
        out = tmp_path / "clo"
        code = main(["closure", cfg, "--seeds", "3", "--bins", "120",
                     "--jobs", "1", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "closure.json").read_text())
        assert doc["n_completed"] == 3
        assert "gamma0" in doc["estimators"]
        assert "weighted_mean" in doc["estimators"]
        assert (out / "closure.txt").read_text().startswith("closure:")

    def test_one_seed_exit_2(self, tmp_path):
        cfg = write(tmp_path, "exp.ini", EXPERIMENT)
        assert main(["closure", cfg, "--seeds", "1",
                     "--out", str(tmp_path / "c")]) == EXIT_CONFIG


def _impossible_peaks_histogram(tmp_path):
    # one Gaussian peak, to be asked for five
    rng = np.random.default_rng(2)
    hist = build_histogram(rng.normal(0.0, 0.08, 50_000), 120, (-0.5, 0.5))
    path = tmp_path / "hist.csv"
    save_histogram_csv(hist, path)
    return str(path)


def _poor_fit_config(tmp_path):
    # the OFF histogram's third peak is left unfitted (TestFitQualityGate)
    on = TestFitQualityGate.histogram_csv(tmp_path, "on.csv", [4000, 1000, 0])
    off = TestFitQualityGate.histogram_csv(tmp_path, "off.csv", [4000, 1000, 1000])
    return write(
        tmp_path,
        "cal.ini",
        "[herald]\nxi = 0.95\n\n[inputs]\n"
        f"on_histogram = {on}\noff_histogram = {off}\n\n[fit]\nn_peaks = 2\n",
    )


def _table_counts(tmp_path, *replacements):
    text = TABLE_COUNTS
    for old, new in replacements:
        text = text.replace(old, new)
    return write(tmp_path, "cal.ini", text)


# B(0) = B(1): the gamma_1 denominator vanishes
FLAT_OFF = (("off = 5.103e6 1.4600e4 23.9", "off = 0.5 0.5 0"),
            ("off_u = 1.4e4 150 1.5", "off_u = 0 0 0"))
# photon number 2 empty on both sides
EMPTY_N2 = (("on = 5.069e6 5.0200e4 118", "on = 5.069e6 5.02e4 0"),
            ("on_u = 1.4e4 200 6", "on_u = 1.4e4 200 0"),
            ("off = 5.103e6 1.4600e4 23.9", "off = 5.103e6 1.46e4 0"),
            ("off_u = 1.4e4 150 1.5", "off_u = 1.4e4 150 0"))

# B(0) ~ B(1): gamma_1's analytic derivatives disagree with its finite differences
NEAR_FLAT_OFF = """\
[herald]
xi = 0.99
u_xi = 1e-4

[counts]
on = 1000 500 10
on_u = 31.6 22.4 3.2
off = 1000 999.9999 5
off_u = 31.6 31.6 2.2
"""

# (id, argv from tmp_path, exit code, the key=value pairs on stderr before detail=)
EXIT_CASES = [
    ("simulate-missing-field",
     lambda t: ["simulate", write(t, "exp.ini", EXPERIMENT.replace("seed = 4242\n", ""))],
     EXIT_CONFIG, "error=config"),
    ("simulate-pileup",
     lambda t: ["simulate", write(t, "exp.ini", EXPERIMENT + "rep_period_us = 5.0\n")],
     EXIT_CONFIG, "error=config"),
    ("simulate-negative-seed",
     lambda t: ["simulate", write(t, "exp.ini", EXPERIMENT), "--seed", "-1"],
     EXIT_CONFIG, "error=config"),
    ("fit-missing-file", lambda t: ["fit", str(t / "nope.csv")], EXIT_CONFIG, "error=config"),
    ("fit-impossible-peaks",
     lambda t: ["fit", _impossible_peaks_histogram(t), "--peaks", "5"], EXIT_FIT,
     "error=fit reason=degenerate"),
    ("calibrate-missing-counts",
     lambda t: ["calibrate", write(t, "cal.ini", "[herald]\nxi = 0.9\n"), "--bypass-fit"],
     EXIT_CONFIG, "error=config"),
    ("calibrate-unwritable-out",
     lambda t: ["calibrate", _table_counts(t), "--bypass-fit", "--out", _table_counts(t)],
     EXIT_CONFIG, "error=config"),
    ("calibrate-flat-off",
     lambda t: ["calibrate", _table_counts(t, *FLAT_OFF), "--bypass-fit"],
     EXIT_UNINFORMATIVE, "error=uninformative_bin"),
    ("calibrate-near-flat-off",
     lambda t: ["calibrate", write(t, "cal.ini", NEAR_FLAT_OFF), "--bypass-fit"],
     EXIT_UNINFORMATIVE, "error=numerical"),
    ("calibrate-poor-fit", lambda t: ["calibrate", _poor_fit_config(t)], EXIT_FIT,
     "error=fit side=off reason=quality"),
    ("calibrate-zero-peaks",
     lambda t: ["calibrate", _table_counts(t), "--bypass-fit", "--peaks", "0"],
     EXIT_CONFIG, "error=config"),
    ("calibrate-zero-bins", lambda t: ["calibrate", _poor_fit_config(t), "--bins", "0"],
     EXIT_CONFIG, "error=config"),
    ("budget-missing-counts",
     lambda t: ["budget", write(t, "cal.ini", "[herald]\nxi = 0.9\n"), "--bypass-fit"],
     EXIT_CONFIG, "error=config"),
    ("budget-empty-n2",
     lambda t: ["budget", _table_counts(t, *EMPTY_N2), "--bypass-fit"],
     EXIT_UNINFORMATIVE, "error=uninformative_bin"),
    ("closure-missing-field",
     lambda t: ["closure", write(t, "exp.ini", EXPERIMENT.replace("xi_true = 0.95\n", ""))],
     EXIT_CONFIG, "error=config"),
    ("closure-one-seed",
     lambda t: ["closure", write(t, "exp.ini", EXPERIMENT), "--seeds", "1"],
     EXIT_CONFIG, "error=usage"),
    ("closure-negative-seed",
     lambda t: ["closure", write(t, "exp.ini", EXPERIMENT.replace("seed = 4242", "seed = -5"))],
     EXIT_CONFIG, "error=config"),
    ("closure-zero-jobs",
     lambda t: ["closure", write(t, "exp.ini", EXPERIMENT), "--jobs", "0"],
     EXIT_CONFIG, "error=config"),
]


class TestExitCodes:
    """One input per failure class of each command: its exit code, the
    stderr keys before the detail (an exit 3 names its reason), and nothing
    on stdout or in the --out directory."""

    @pytest.mark.parametrize("argv, code, key", [c[1:] for c in EXIT_CASES],
                             ids=[c[0] for c in EXIT_CASES])
    def test_failure_class(self, tmp_path, capsys, argv, code, key):
        args = argv(tmp_path)
        if "--out" not in args:
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].split(" detail=")[0] == key, lines
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


# (id, command, INI text): a value that is not a number, or half of a pair
BAD_VALUES = [
    ("simulate-gamma", "simulate",
     EXPERIMENT.replace("gamma_true = 0.3", "gamma_true = abc"), "[experiment] gamma_true"),
    ("simulate-n-pulses", "simulate",
     EXPERIMENT.replace("n_pulses = 120000", "n_pulses = 1.2e5"), "[experiment] n_pulses"),
    ("closure-gamma", "closure",
     EXPERIMENT.replace("gamma_true = 0.3", "gamma_true = abc"), "[experiment] gamma_true"),
    ("calibrate-xi", "calibrate",
     TABLE_COUNTS.replace("xi = 0.98794", "xi = oops"), "[herald] xi"),
    ("calibrate-herald-counts", "calibrate",
     TABLE_COUNTS.replace("xi = 0.98794\nu_xi = 7e-5", "n_on = 1e6\nn_off = lots"),
     "[herald] n_off"),
    ("calibrate-herald-half-pair", "calibrate",
     TABLE_COUNTS.replace("xi = 0.98794\nu_xi = 7e-5", "n_on = 1e6"), "n_off"),
    ("calibrate-counts", "calibrate",
     TABLE_COUNTS.replace("on = 5.069e6 5.0200e4 118", "on = 5.069e6 5.0200e4 x118"),
     "[counts] on"),
    ("calibrate-n-peaks", "calibrate", TABLE_COUNTS + "\n[fit]\nn_peaks = three\n",
     "[fit] n_peaks"),
    ("budget-off-u", "budget",
     TABLE_COUNTS.replace("off_u = 1.4e4 150 1.5", "off_u = 1.4e4 150 ?"), "[counts] off_u"),
]


class TestBadConfigValues:
    @pytest.mark.parametrize("command, text, where", [c[1:] for c in BAD_VALUES],
                             ids=[c[0] for c in BAD_VALUES])
    def test_exit_2_naming_the_key(self, tmp_path, capsys, command, text, where):
        argv = [command, write(tmp_path, "cfg.ini", text), "--out", str(tmp_path / "out")]
        if command in ("calibrate", "budget"):
            argv.append("--bypass-fit")
        assert main(argv) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=config detail="), lines
        assert where in lines[0]
