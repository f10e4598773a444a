"""Calibration pipeline glue and report emission (JSON / CSV).

Internally everything is a fraction; percent and the paper-style rounding
(value aligned to the first significant digit of its uncertainty) appear
only here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import uncertainty as unc
from .errors import DomainError, UninformativeBinError
from .model import (
    CountVector,
    EfficiencyEstimate,
    HeraldPurity,
    estimate_names,
    require_defined,
    weighted_mean,
)


def round_to_uncertainty(value: float, u: float) -> tuple[str, str]:
    """Render value/uncertainty with u at one significant digit."""
    if u <= 0 or not math.isfinite(u):
        return (f"{value:.6g}", f"{u:.6g}")
    exp = math.floor(math.log10(abs(u)))
    digits = max(-exp, 0)
    u_rounded = round(u, -exp)
    # rounding can push the uncertainty to the next decade (0.0097 -> 0.01)
    if u_rounded >= 10 ** (exp + 1):
        exp += 1
        digits = max(-exp, 0)
        u_rounded = round(u, -exp)
    return (f"{value:.{digits}f}", f"{u_rounded:.{digits}f}")


@dataclass(frozen=True)
class CalibrationResult:
    """Everything cmd_calibrate reports for one dataset."""

    estimates: dict[str, EfficiencyEstimate]
    budgets: dict[str, unc.UncertaintyBudget]
    combined: EfficiencyEstimate
    inputs: unc.InputVector
    fit_quality: dict[str, dict] | None = None


def calibrate_counts(
    on: CountVector,
    off: CountVector,
    xi: HeraldPurity,
    covariance: np.ndarray | None = None,
) -> CalibrationResult:
    """Every estimate and budget on extracted (or injected) counts, from
    one cross-checked Jacobian of the estimator core.

    A photon number with no counts on either side, or whose estimate is
    undefined, raises UninformativeBinError naming it.
    """
    inputs = unc.counting_inputs(on, off, xi, covariance)
    if on.total <= 0 or off.total <= 0:
        raise DomainError("total count must be > 0")
    if xi.xi <= 0:
        raise DomainError("xi must be > 0")
    k = on.counts.size
    empty = np.flatnonzero((on.counts == 0) & (off.counts == 0))
    if empty.size:
        raise UninformativeBinError(
            f"photon number {empty[0]} has no counts on either side"
        )
    core = unc.CountingEstimators()
    values = core(inputs.values)
    require_defined(values, range(k))
    jac = unc.jacobian(core, inputs)

    names = estimate_names(k)
    sources = names[:k] + ["klyshko"]
    estimates: dict[str, EfficiencyEstimate] = {}
    budgets: dict[str, unc.UncertaintyBudget] = {}
    for name, source, value, gradient in zip(names, sources, values, jac):
        budgets[name] = unc.propagate(gradient, inputs, target=name)
        estimates[name] = EfficiencyEstimate(
            float(value), budgets[name].combined, source
        )
    combined = weighted_mean([estimates[name] for name in names[:k]])
    return CalibrationResult(estimates, budgets, combined, inputs)


def _estimate_json(e: EfficiencyEstimate) -> dict:
    value_pct, u_pct = round_to_uncertainty(e.gamma * 100.0, e.u_gamma * 100.0)
    return {
        "fraction": e.gamma,
        "u_fraction": e.u_gamma,
        "percent_rendered": value_pct,
        "u_percent_rendered": u_pct,
        "source": e.source,
        "flags": sorted(e.flags),
    }


def calibration_report_json(result: CalibrationResult) -> dict:
    """Deterministic report body; the timestamp lives in `meta` only."""
    return {
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
        "inputs": {
            "names": list(result.inputs.names),
            "values": result.inputs.values.tolist(),
            "uncertainties": result.inputs.uncertainties.tolist(),
            "has_covariance": result.inputs.covariance is not None,
        },
        "estimates": {k: _estimate_json(v) for k, v in sorted(result.estimates.items())},
        "weighted_mean": _estimate_json(result.combined),
        "budgets": {
            k: {
                "contributions_percent": {
                    n: c * 100.0 for n, c in b.as_dict().items()
                },
                "combined_percent": b.combined * 100.0,
            }
            for k, b in sorted(result.budgets.items())
        },
        "fit_quality": result.fit_quality,
    }


def write_json(document: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def budget_table_csv(result: CalibrationResult, path) -> None:
    """CSV mirroring the published budget layout: one row per input
    quantity with its value, standard uncertainty and signed contribution
    (in percent) to each estimator, then one row per estimator."""
    targets = sorted(result.budgets)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["quantity", "value", "standard_uncertainty"]
            + [f"contrib_{t}_percent" for t in targets]
        )
        for j, name in enumerate(result.inputs.names):
            writer.writerow(
                [
                    name,
                    repr(float(result.inputs.values[j])),
                    repr(float(result.inputs.uncertainties[j])),
                ]
                + [repr(float(result.budgets[t].contributions[j] * 100.0)) for t in targets]
            )
        for t in targets:
            e = result.estimates[t]
            v, u = round_to_uncertainty(e.gamma * 100.0, e.u_gamma * 100.0)
            writer.writerow([f"{t}_percent", v, u] + [""] * len(targets))
        v, u = round_to_uncertainty(
            result.combined.gamma * 100.0, result.combined.u_gamma * 100.0
        )
        writer.writerow(["weighted_mean_percent", v, u] + [""] * len(targets))


def load_covariance_csv(path, names: tuple[str, ...]) -> np.ndarray:
    """Covariance matrix CSV: header row of quantity names, one row per
    quantity with its name in the first column.  A file that cannot be
    read, holds a value that is not a number, or does not name each of
    `names` once per row and column raises DomainError naming the file."""
    try:
        with open(path, newline="") as fh:
            lines = [r for r in csv.reader(fh) if r]
        rows = {r[0].strip(): [float(v) for v in r[1:]] for r in lines[1:]}
    except OSError as exc:
        raise DomainError(f"{path}: cannot read covariance file: {exc.strerror}") from None
    except ValueError as exc:
        raise DomainError(f"{path}: malformed covariance file: {exc}") from None
    cols = [h.strip() for h in lines[0][1:]] if lines else []
    if (
        set(cols) != set(names)
        or set(rows) != set(names)
        or any(len(r) != len(cols) for r in rows.values())
    ):
        raise DomainError(
            f"{path}: covariance quantities must match {list(names)}"
        )
    order = [cols.index(n) for n in names]
    return np.array([rows[n] for n in names])[:, order]


def closure_report_json(report) -> dict:
    return {
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
        "gamma_true": report.gamma_true,
        "n_seeds": report.n_seeds,
        "n_completed": report.n_completed,
        "failures": list(report.failures),
        "estimators": {
            e.name: {
                "n_success": e.n_success,
                "mean": e.mean,
                "spread": e.spread,
                "mean_claimed_u": e.mean_claimed_u,
                "bias": e.bias,
                "pull_mean": e.pull_mean,
                "pull_variance": e.pull_variance,
                "n_out_of_range": e.n_out_of_range,
            }
            for e in report.estimators
        },
    }


def closure_report_table(report) -> str:
    lines = [
        f"closure: gamma_true={report.gamma_true:.6g} "
        f"seeds={report.n_completed}/{report.n_seeds}",
        f"{'estimator':<14}{'n':>4}{'mean':>12}{'spread':>12}"
        f"{'claimed u':>12}{'bias':>12}{'pull var':>10}",
    ]
    for e in report.estimators:
        lines.append(
            f"{e.name:<14}{e.n_success:>4}{e.mean:>12.4g}{e.spread:>12.4g}"
            f"{e.mean_claimed_u:>12.4g}{e.bias:>12.4g}{e.pull_variance:>10.3f}"
        )
    return "\n".join(lines)


def strip_timestamps(document: dict) -> dict:
    """Copy of a report with the metadata timestamp removed (for
    byte-identical comparison of reproduced runs)."""
    doc = json.loads(json.dumps(document))
    doc.get("meta", {}).pop("generated_at", None)
    return doc


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
