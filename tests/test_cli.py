import csv
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
    MAX_QUALITY_RATIO,
    _run_calibration,
    build_parser,
    main,
)
from pnrcal.histogram import (
    AmplitudeHistogram,
    build_histogram,
    robust_peak_counts,
    save_histogram_csv,
)
from pnrcal.model import HeraldPurity
from pnrcal.reports import calibrate_counts, strip_timestamps
from pnrcal.simulator import load_amplitudes

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

    def test_missing_file_exit_2(self, tmp_path):
        # a missing file, then a row that is not two numbers
        malformed = write(tmp_path, "bad.csv", "bin_center,count\n0.0,1\n0.5,x\n")
        for path in (str(tmp_path / "nope.csv"), malformed):
            assert main(["fit", path]) == EXIT_CONFIG

    def test_impossible_peaks_exit_3(self, tmp_path):
        rng = np.random.default_rng(2)
        hist = build_histogram(rng.normal(0.0, 0.08, 50_000), 120, (-0.5, 0.5))
        path = tmp_path / "hist.csv"
        save_histogram_csv(hist, path)
        code = main(["fit", str(path), "--peaks", "5", "--out", str(tmp_path)])
        assert code in (EXIT_CONFIG, EXIT_FIT)
        assert code != EXIT_OK


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
            "[fit]\nn_peaks = 4\nbins = 150\n",
        )
        out = tmp_path / "rep"
        assert main(["calibrate", cal, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "calibration.json").read_text())
        g0 = doc["estimates"]["gamma0"]
        assert abs(g0["fraction"] - 0.3) < 4 * g0["u_fraction"]
        assert doc["fit_quality"]["on"]["ratio"] < 1e-2

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

        counts = {}
        for side, path in paths.items():
            hist = build_histogram(load_amplitudes(path), 200)
            counts[side], _, _ = robust_peak_counts(hist, 3)
        serial = calibrate_counts(counts["on"], counts["off"], HeraldPurity(0.95, 1e-4))

        assert result.estimates == serial.estimates
        assert result.combined == serial.combined
        assert result.budgets.keys() == serial.budgets.keys()
        for name, budget in serial.budgets.items():
            got = result.budgets[name]
            assert (got.names, got.combined) == (budget.names, budget.combined)
            assert got.contributions.tobytes() == budget.contributions.tobytes()


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
        # two fitted peaks describe the ON histogram; the OFF histogram's
        # third peak is left unfitted, a chi2/TSS ratio of about 8e-4
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
                assert "error=fit" in err and "off fit quality ratio" in err
                ratio = float(err.split("ratio ")[1].split()[0])
                assert ratio > MAX_QUALITY_RATIO
                # the side and reason come as keys before the detail
                keys = err.split(" detail=")[0].split()
                assert keys == ["error=fit", "side=off", "reason=quality"]


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
