import dataclasses
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare, poisson

from pnrcal.errors import ConfigError, DomainError
from pnrcal.simulator import (
    ClosureReport,
    ExperimentConfig,
    RawRun,
    RunTallies,
    _closure_single,
    both_sides,
    closure_test,
    dark_rate_for_purity,
    load_amplitudes,
    save_run,
    simulate_herald_stats,
    simulate_histograms,
    simulate_run,
)
from pnrcal import histogram as hg
from pnrcal.histogram import build_histogram, robust_peak_counts
from pnrcal.model import (
    CountVector,
    forward_distribution,
    PhotonNumberDistribution,
    estimate_xi,
)
from pnrcal.reports import calibrate_counts


def _die_mid_seed(*args):
    os._exit(1)  # a pool worker killed mid-seed, as by the OOM killer


def make_config(**overrides):
    base = dict(
        gamma_true=0.1,
        xi_true=0.95,
        herald_prob=0.5,
        background_mean=0.05,
        peak_centers=(0.0, 1.0, 2.0, 3.0),
        peak_widths=(0.08, 0.08, 0.08, 0.08),
        n_pulses=100_000,
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ConfigError):
            make_config(gamma_true=1.5)
        with pytest.raises(ConfigError):
            make_config(background_mean=-0.1)
        with pytest.raises(ConfigError):
            make_config(peak_widths=(0.08,) * 3)
        with pytest.raises(ConfigError):
            make_config(n_pulses=0)

    def test_peak_extrapolation(self):
        cfg = make_config()
        n = np.array([5])
        # centers extrapolate linearly beyond the table; widths saturate
        assert cfg.peak_center(n)[0] == pytest.approx(5.0)
        assert cfg.peak_width(n)[0] == 0.08


class TestPileup:
    # two bins keep the draw cheap when the check passes
    def test_default_passes(self):
        simulate_histograms(make_config(), 2, (-0.5, 3.5))

    def test_short_period_fails(self):
        with pytest.raises(ConfigError, match="pile-up"):
            simulate_histograms(make_config(rep_period_us=5.0), 2, (-0.5, 3.5))

    def test_boundary_passes(self):
        simulate_histograms(make_config(rep_period_us=10.4), 2, (-0.5, 3.5))

    @given(extra=st.floats(0.0, 100.0))
    def test_monotone_in_period(self, extra):
        simulate_histograms(make_config(rep_period_us=10.4 + extra), 2, (-0.5, 3.5))

    def test_simulate_refuses_pileup(self):
        with pytest.raises(ConfigError):
            simulate_run(make_config(rep_period_us=5.0))


class TestSimulateRun:
    def test_deterministic(self):
        cfg = make_config()
        a = simulate_run(cfg)
        b = simulate_run(cfg)
        assert np.array_equal(a.on_amplitudes, b.on_amplitudes)
        assert np.array_equal(a.off_amplitudes, b.off_amplitudes)
        assert a.tallies == b.tallies

    def test_seed_changes_output(self):
        a = simulate_run(make_config(seed=1))
        b = simulate_run(make_config(seed=2))
        assert not np.array_equal(a.on_amplitudes, b.on_amplitudes)

    def test_tally_conservation(self):
        run = simulate_run(make_config())
        t = run.tallies
        assert t.heralded_detections + t.heralded_misses == t.true_heralds
        n_her = t.true_heralds + t.false_heralds
        assert run.on_amplitudes.size == n_her
        assert sum(t.on_counts_by_n) == n_her
        assert sum(t.off_counts_by_n) == run.off_amplitudes.size
        # photon bookkeeping: ON photons = backgrounds + detections
        total_on_photons = sum(n * c for n, c in enumerate(t.on_counts_by_n))
        assert total_on_photons == t.on_background_photons + t.heralded_detections

    def test_quiet_detector(self):
        run = simulate_run(make_config(gamma_true=0.0, background_mean=0.0))
        t = run.tallies
        assert t.heralded_detections == 0
        assert t.on_counts_by_n[0] == run.on_amplitudes.size
        # every amplitude is drawn from the zero-photon peak
        assert abs(run.on_amplitudes.mean()) < 5 * 0.08 / math.sqrt(
            run.on_amplitudes.size
        )

    def test_detection_count_binomial(self):
        cfg = make_config(xi_true=1.0, background_mean=0.0, gamma_true=0.2,
                          n_pulses=200_000)
        run = simulate_run(cfg)
        n = run.tallies.true_heralds
        d = run.tallies.heralded_detections
        sd = math.sqrt(n * 0.2 * 0.8)
        assert abs(d - 0.2 * n) < 5 * sd

    def test_generative_consistency_on(self):
        # empirical ON photon-number frequencies must match the forward model
        # with a Poisson background at the 0.1% chi-square level
        cfg = make_config(gamma_true=0.3, xi_true=0.9, background_mean=0.2,
                          n_pulses=1_000_000, seed=77)
        run = simulate_run(cfg)
        observed = np.array(run.tallies.on_counts_by_n, dtype=float)
        k_max = observed.size - 1
        bg = poisson.pmf(np.arange(k_max + 4), cfg.background_mean)
        model = forward_distribution(
            cfg.gamma_true, cfg.xi_true, PhotonNumberDistribution(bg)
        )
        expected = model.probs[: k_max + 1] * observed.sum()
        # lump the sparse tail so every cell has >= 5 expected events
        cut = int(np.searchsorted(np.cumsum(expected < 5.0), 1))
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(expected[:cut], observed.sum() - expected[:cut].sum())
        stat, p_value = chisquare(obs, exp)
        assert p_value > 1e-3

    def test_off_gates_are_pure_poisson(self):
        cfg = make_config(background_mean=0.3, n_pulses=500_000, seed=9)
        run = simulate_run(cfg)
        observed = np.array(run.tallies.off_counts_by_n, dtype=float)
        expected = poisson.pmf(np.arange(observed.size), 0.3) * observed.sum()
        cut = int(np.searchsorted(np.cumsum(expected < 5.0), 1))
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(expected[:cut], observed.sum() - expected[:cut].sum())
        stat, p_value = chisquare(obs, exp)
        assert p_value > 1e-3


def two_sample_p(a, b):
    """p-value of a two-sample chi-square test on two count vectors, over
    the cells where every expected count is at least 5."""
    table = np.array([a, b], dtype=float)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    keep = expected.min(axis=0) >= 5.0
    return chi2_contingency(table[:, keep], correction=False).pvalue


class TestSimulateHistograms:
    # four populated peaks; the range cuts into the n=0 and n=3 peaks so
    # under- and overflow are populated too
    CONFIG = dict(gamma_true=0.3, background_mean=0.3, herald_prob=0.8,
                  n_pulses=40_000)
    N_BINS, RANGE = 120, (-0.2, 3.2)

    def pooled(self, draw, seeds):
        """Per side: summed bin counts, gates by photon number (padded to
        10) and [underflow, inside, overflow]."""
        sums = {}
        for seed in seeds:
            on, off, t = draw(make_config(seed=seed, **self.CONFIG))
            for tag, hist, by_n in (("on", on, t.on_counts_by_n),
                                    ("off", off, t.off_counts_by_n)):
                parts = {
                    (tag, "bins"): hist.counts,
                    (tag, "by_n"): np.pad(by_n, (0, 10 - len(by_n))),
                    (tag, "flow"): np.array(
                        [hist.n_underflow, hist.total, hist.n_overflow]
                    ),
                }
                for key, vec in parts.items():
                    sums[key] = sums.get(key, 0) + vec
        return sums

    def test_matches_per_pulse_path(self):
        def per_pulse(cfg):
            run = simulate_run(cfg)
            return (
                build_histogram(run.on_amplitudes, self.N_BINS, self.RANGE),
                build_histogram(run.off_amplitudes, self.N_BINS, self.RANGE),
                run.tallies,
            )

        def binned(cfg):
            return simulate_histograms(cfg, self.N_BINS, self.RANGE)

        a = self.pooled(per_pulse, range(100))
        b = self.pooled(binned, range(1000, 1100))
        assert len(a) == 6
        for key in a:
            p = two_sample_p(a[key], b[key])
            assert p > 1e-3, (key, p)
        # the chi-square tests see proportions only; the gate totals differ
        # by the binomial spread of the herald count
        cfg = make_config(**self.CONFIG)
        spread = math.sqrt(2 * 100 * cfg.n_pulses * 0.8 * 0.2)
        for tag in ("on", "off"):
            diff = a[tag, "flow"].sum() - b[tag, "flow"].sum()
            assert abs(diff) < 5 * spread, (tag, diff, spread)

    def test_deterministic(self):
        cfg = make_config(**self.CONFIG)
        first = simulate_histograms(cfg, self.N_BINS, self.RANGE)
        second = simulate_histograms(cfg, self.N_BINS, self.RANGE)
        for h1, h2 in zip(first[:2], second[:2]):
            assert np.array_equal(h1.counts, h2.counts)
            assert (h1.n_underflow, h1.n_overflow) == (h2.n_underflow, h2.n_overflow)
        assert first[2] == second[2]
        other = simulate_histograms(make_config(seed=124, **self.CONFIG),
                                    self.N_BINS, self.RANGE)
        assert not np.array_equal(first[0].counts, other[0].counts)

    def test_tally_conservation(self):
        on, off, t = simulate_histograms(make_config(**self.CONFIG),
                                         self.N_BINS, self.RANGE)
        assert np.array_equal(on.bin_edges, np.linspace(*self.RANGE, self.N_BINS + 1))
        n_her = t.true_heralds + t.false_heralds
        assert on.total + on.n_underflow + on.n_overflow == sum(t.on_counts_by_n) == n_her
        assert off.total + off.n_underflow + off.n_overflow == sum(t.off_counts_by_n)
        assert on.n_underflow > 0 and on.n_overflow > 0
        assert len(t.on_counts_by_n) == len(t.off_counts_by_n)
        assert t.on_counts_by_n[-1] + t.off_counts_by_n[-1] > 0
        total_on_photons = sum(n * c for n, c in enumerate(t.on_counts_by_n))
        assert total_on_photons == t.on_background_photons + t.heralded_detections
        total_off_photons = sum(n * c for n, c in enumerate(t.off_counts_by_n))
        assert total_off_photons == t.off_background_photons

    def test_nothing_in_range_raises(self):
        with pytest.raises(DomainError):
            simulate_histograms(make_config(**self.CONFIG), self.N_BINS, (10.0, 11.0))


class TestHeraldStats:
    def test_dark_rate_inversion(self):
        cfg = make_config(xi_true=0.98794, herald_prob=0.5)
        d = dark_rate_for_purity(cfg)
        # with genuine heralds at rate hp and dark heralds at rate d,
        # xi = 1 - n_OFF/n_ON = 1 - d / (hp + d (1 - hp))
        hp = cfg.herald_prob
        xi = 1.0 - d / (hp + d * (1.0 - hp))
        assert abs(xi - cfg.xi_true) < 1e-12

    def test_no_dark_counts(self):
        stats = simulate_herald_stats(make_config(), dark_rate=0.0)
        assert stats.n_off == 0
        assert estimate_xi(stats).xi == 1.0

    def test_purity_recovered_across_seeds(self):
        cfg = make_config(xi_true=0.98794, n_pulses=1_000_000)
        d = dark_rate_for_purity(cfg)
        pulls = []
        for seed in range(100):
            stats = simulate_herald_stats(
                dataclasses.replace(cfg, seed=seed), d
            )
            purity = estimate_xi(stats)
            pulls.append((purity.xi - cfg.xi_true) / purity.u_xi)
        pulls = np.array(pulls)
        assert abs(pulls.mean()) < 5.0 / math.sqrt(pulls.size)
        assert 0.5 < pulls.std(ddof=1) < 1.5


class TestClosure:
    def test_small_closure_completes(self):
        cfg = make_config(gamma_true=0.3, background_mean=0.3,
                          herald_prob=0.8, n_pulses=40_000)
        # fit all four tabulated peaks: at these rates the n >= 2 bins hold
        # real population and truncating them would bias the estimators
        report = closure_test(cfg, n_seeds=3, n_bins=120, max_index=3)
        assert isinstance(report, ClosureReport)
        assert report.n_completed == 3
        g0 = report.estimator("gamma0")
        assert g0.n_success == 3
        assert abs(g0.bias) < 5 * g0.mean_claimed_u

    def test_paper_scale_500_seeds(self):
        # the ACCEPTANCE 8 experiment and seed, ten times the seeds
        cfg = ExperimentConfig(
            gamma_true=0.00709,
            xi_true=0.98794,
            herald_prob=0.5,
            background_mean=0.00286,
            peak_centers=(0.0, 1.0, 2.0, 3.0),
            peak_widths=(0.08, 0.08, 0.08, 0.08),
            n_pulses=2_200_000,
            seed=42,
        )
        report = closure_test(cfg, n_seeds=500, n_bins=200, max_index=2, jobs=2)
        assert report.n_completed == 500, report.failures[:3]
        for name in ("gamma0", "gamma1"):
            e = report.estimator(name)
            se = e.spread / math.sqrt(e.n_success)
            assert abs(e.bias) <= 3.0 * se, (name, e.bias, se)
            assert 0.75 <= e.pull_variance <= 1.25, (name, e.pull_variance)
        # gamma_K estimates gamma * B(0), not gamma
        k = report.estimator("gammaK")
        expected_bias = -cfg.gamma_true * -math.expm1(-cfg.background_mean)
        se = k.spread / math.sqrt(k.n_success)
        assert abs(k.bias - expected_bias) <= 3.0 * se, (k.bias, expected_bias, se)
        # gamma2 is left out: its problem is bias (the fit narrows the
        # sparse n=2 peaks), not its claimed u

    def test_seed_without_n2_counts_scores_calibrate_counts(self, monkeypatch):
        # seed 28 of SeedSequence root 7 at paper scale: both fits drop n=2
        cfg = make_config(gamma_true=0.00709, xi_true=0.98794,
                          background_mean=0.00286, n_pulses=2_200_000,
                          seed=3821436085)
        fitted = []

        def spy(*args, **kwargs):
            out = robust_peak_counts(*args, **kwargs)
            fitted.append(out[0])
            return out

        monkeypatch.setattr(hg, "robust_peak_counts", spy)
        scored = _closure_single(cfg, n_bins=200, max_index=2)
        on, off = fitted
        assert on.counts[2] == off.counts[2] == 0.0
        assert "gamma2" not in scored
        xi = estimate_xi(simulate_herald_stats(cfg, dark_rate_for_purity(cfg)))
        result = calibrate_counts(
            CountVector(on.counts[:2], on.uncertainties[:2]),
            CountVector(off.counts[:2], off.uncertainties[:2]),
            xi,
        )
        for name in ("gamma0", "gamma1", "gammaK"):
            e = result.estimates[name]
            assert scored[name] == (e.gamma, e.u_gamma)
        assert scored["weighted_mean"] == (
            result.combined.gamma, result.combined.u_gamma
        )

    def test_unscored_estimator_gets_no_row(self, monkeypatch):
        # every seed dropped n=2, so gamma2 has no value to average
        scored = {"gamma0": (0.1, 0.01), "gamma1": (0.11, 0.02),
                  "gammaK": (0.09, 0.01), "weighted_mean": (0.1, 0.008)}
        monkeypatch.setattr("pnrcal.simulator._closure_single",
                            lambda *args: scored)
        report = closure_test(make_config(), n_seeds=2, max_index=2)
        assert [e.name for e in report.estimators] == list(scored)
        assert all(e.n_success == 2 and math.isfinite(e.mean)
                   for e in report.estimators)

    def test_dead_worker_fails_its_seeds(self, monkeypatch):
        monkeypatch.setattr("pnrcal.simulator._closure_single", _die_mid_seed)
        report = closure_test(make_config(), n_seeds=2, jobs=2)
        assert report.n_completed == 0 and report.estimators == ()
        assert len(report.failures) == 2
        assert all(f.startswith("seed=") and "BrokenProcessPool" in f
                   for f in report.failures)

    def test_requires_two_seeds(self):
        with pytest.raises(DomainError):
            closure_test(make_config(), n_seeds=1)

    def test_zero_efficiency_flags_half_the_seeds(self):
        cfg = make_config(gamma_true=0.0, background_mean=0.3,
                          herald_prob=0.8, n_pulses=40_000)
        report = closure_test(cfg, n_seeds=12, n_bins=120, max_index=1)
        g0 = report.estimator("gamma0")
        assert abs(g0.bias) < 4 * g0.mean_claimed_u / math.sqrt(max(g0.n_success, 1))
        # estimates scatter around zero, so roughly half go negative
        assert 2 <= g0.n_out_of_range <= 10

    def test_unknown_estimator_name(self):
        cfg = make_config(gamma_true=0.3, background_mean=0.3,
                          herald_prob=0.8, n_pulses=40_000)
        report = closure_test(cfg, n_seeds=2, n_bins=120, max_index=1)
        with pytest.raises(KeyError):
            report.estimator("gamma9")


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        cfg = make_config(n_pulses=5_000)
        run = simulate_run(cfg)
        save_run(run, cfg, tmp_path)
        on = load_amplitudes(tmp_path / "on.csv")
        off = load_amplitudes(tmp_path / "off.csv")
        assert np.array_equal(on, run.on_amplitudes)
        assert np.array_equal(off, run.off_amplitudes)
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["config"]["seed"] == cfg.seed
        assert truth["tallies"]["true_heralds"] == run.tallies.true_heralds

    def test_amplitude_bytes_golden(self, tmp_path):
        # the one-line-per-value writer, written out: save_run's blocks of
        # 2**16 must give the same bytes, the boundary crossed included
        edge = np.array([-0.0, 1e-05, -2.5e-07, 0.1, 1 / 3, 1e16])
        tallies = RunTallies(0, 0, 0, 0, 0, (0,), (0,))
        for n in (0, 1, 2**16, 2**16 + 3):  # n = 0 writes the header alone
            on = np.resize(edge, n)
            off = -np.resize(edge[::-1], n)
            save_run(RawRun(on, off, tallies), make_config(), tmp_path)
            for name, amps in (("on.csv", on), ("off.csv", off)):
                golden = "amplitude\n" + "".join(f"{a!r}\n" for a in amps.tolist())
                assert (tmp_path / name).read_bytes() == golden.encode(), (name, n)

    def test_off_csv_directory_raises(self, tmp_path):
        (tmp_path / "off.csv").mkdir()
        cfg = make_config(n_pulses=5_000)
        with pytest.raises(IsADirectoryError, match="off.csv"):
            save_run(simulate_run(cfg), cfg, tmp_path)
        assert multiprocessing.active_children() == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("volts\n0.1\n", "amplitude\n0.1\n\nabc\n"):
            path.write_text(text)
            with pytest.raises(DomainError):
                load_amplitudes(path)


class Unpicklable:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("pickled")


def _fail_with(side):
    raise DomainError(f"{side} failed")


def _fail_late(side):
    if side == "off":
        time.sleep(0.3)  # still running when the ON half has failed
    _fail_with(side)


class TestBothSides:
    def test_off_runs_in_a_child(self):
        on, off = both_sides(lambda _: os.getpid(), None, None)
        assert on == os.getpid() and off != on
        assert multiprocessing.active_children() == []

    def test_off_is_not_pickled(self):
        # fork hands `off` over; only the result crosses the pipe
        assert both_sides(lambda x: x.value, Unpicklable(1), Unpicklable(2)) == (1, 2)
        assert multiprocessing.active_children() == []

    def test_off_error_raised_here(self):
        with pytest.raises(DomainError, match="off failed"):
            both_sides(lambda side: side if side == "on" else _fail_with(side), "on", "off")
        assert multiprocessing.active_children() == []

    def test_on_error_wins(self):
        with pytest.raises(DomainError, match="on failed"):
            both_sides(_fail_late, "on", "off")
        assert multiprocessing.active_children() == []

    def test_child_without_result_raises_oserror(self):
        with pytest.raises(OSError, match="off side exited with code 7"):
            both_sides(lambda side: side if side == "on" else os._exit(7), "on", "off")
        assert multiprocessing.active_children() == []
