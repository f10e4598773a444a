"""First-order uncertainty propagation and contribution budgets.

Every efficiency estimator is a smooth function of the raw inputs: the
per-photon-number counts of the heralded (ON) and non-heralded (OFF)
spectra plus the herald purity.  This module carries those inputs with
their uncertainties (and optionally a full covariance), chains them into
the estimator core `model.gamma_estimates` (all estimates and their
analytic Jacobian), cross-checks that Jacobian against central finite
differences, and turns gradients into per-input contribution budgets.

An estimator is called on input values, not on an `InputVector`: `f(q)`
and `f.gradient(q)` take q of shape (..., n), with any leading batch axes,
in the order of the `InputVector` it is checked on.  The cross-check
stacks the centre and all 2n perturbed points into one (2n+1, n) batch
and evaluates the estimator once on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalInstabilityError
from .model import CountVector, HeraldPurity, gamma_estimates

# Central-difference step: h = max(1e-6 * |q|, 1e-10), fixed for
# reproducibility across platforms.
FD_REL_STEP = 1e-6
FD_MIN_STEP = 1e-10
GRADIENT_AGREEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class InputVector:
    """Named input quantities with standard uncertainties.

    `covariance`, when present, must be symmetric positive semidefinite
    with diagonal equal to the squared uncertainties.
    """

    names: tuple[str, ...]
    values: np.ndarray
    uncertainties: np.ndarray
    covariance: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        u = np.asarray(self.uncertainties, dtype=float)
        if len(self.names) != v.size or v.shape != u.shape or v.ndim != 1:
            raise DomainError("names, values and uncertainties must align")
        if np.any(u < 0):
            raise DomainError("uncertainties must be >= 0")
        v.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "uncertainties", u)
        if self.covariance is not None:
            c = np.asarray(self.covariance, dtype=float)
            if c.shape != (v.size, v.size):
                raise DomainError("covariance shape mismatch")
            scale = max(np.abs(c).max(), 1e-300)
            if np.abs(c - c.T).max() > 1e-9 * scale:
                raise DomainError("covariance must be symmetric")
            eig = np.linalg.eigvalsh(0.5 * (c + c.T))
            if eig.min() < -1e-9 * max(eig.max(), 1e-300):
                raise DomainError("covariance must be positive semidefinite")
            if np.any(np.abs(np.diag(c) - u**2) > 1e-9 * np.maximum(u**2, 1e-300)):
                raise DomainError("covariance diagonal must equal u^2")
            c.setflags(write=False)
            object.__setattr__(self, "covariance", c)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class UncertaintyBudget:
    """Signed per-input contributions g_i * u(q_i) and the combined total."""

    target: str
    names: tuple[str, ...]
    contributions: np.ndarray
    combined: float

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, map(float, self.contributions)))


def counting_inputs(
    on: CountVector,
    off: CountVector,
    xi: HeraldPurity,
    covariance: np.ndarray | None = None,
) -> InputVector:
    """Pack ON counts, OFF counts and the herald purity into one vector,
    with an optional full covariance in the same order."""
    if on.counts.size != off.counts.size:
        raise DomainError("ON and OFF count vectors must share length")
    k = on.counts.size
    names = [f"C_on_{i}" for i in range(k)] + [f"C_off_{i}" for i in range(k)] + ["xi"]
    values = np.concatenate([on.counts, off.counts, [xi.xi]])
    u = np.concatenate([on.uncertainties, off.uncertainties, [xi.u_xi]])
    return InputVector(tuple(names), values, u, covariance)


class CountingEstimators:
    """Every estimate of `model.gamma_estimates` as one vector-valued
    estimator of `counting_inputs` values: [gamma_0 .. gamma_{k-1},
    gamma_K] and their Jacobian, over any leading batch axes."""

    row = slice(None)

    def _evaluate(self, q) -> tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=float)
        n = q.shape[-1]
        if n % 2 != 1 or n < 3:
            raise DomainError("expected 2k counts plus xi")
        k = (n - 1) // 2
        if isinstance(self.row, int) and self.row >= k:
            raise DomainError(f"index {self.row} outside support 0..{k - 1}")
        values, jac = gamma_estimates(q[..., :k], q[..., k : 2 * k], q[..., -1])
        return values[..., self.row], jac[..., self.row, :]

    def __call__(self, q) -> np.ndarray:
        return self._evaluate(q)[0]

    def gradient(self, q) -> np.ndarray:
        return self._evaluate(q)[1]


class GammaEstimator(CountingEstimators):
    """Per-photon-number estimator gamma_i: row i of the estimator core."""

    def __init__(self, i: int):
        if i < 0:
            raise DomainError("photon-number index must be >= 0")
        self.row = i
        self.name = f"gamma{i}"


class KlyshkoEstimator(CountingEstimators):
    """Click/no-click contraction gamma_K = (B(0) - P(0)) / xi: the last
    row of the estimator core."""

    name = "gammaK"
    row = -1


def _central_differences(f, at: InputVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f at the centre, the central-difference gradient and the steps, from
    one call of f on the centre stacked over every perturbed point."""
    q = at.values
    n = q.size
    steps = np.maximum(FD_REL_STEP * np.abs(q), FD_MIN_STEP)
    batch = np.tile(q, (2 * n + 1, 1))
    batch[1 + np.arange(n), np.arange(n)] += steps
    batch[1 + n + np.arange(n), np.arange(n)] -= steps
    out = np.moveaxis(np.asarray(f(batch), dtype=float), 0, -1)
    centre, fp, fm = out[..., 0], out[..., 1 : n + 1], out[..., n + 1 :]
    undefined = ~(np.isfinite(fp) & np.isfinite(fm)).reshape(-1, n).all(axis=0)
    if undefined.any():
        raise DomainError(
            f"estimator undefined at perturbed {at.names[np.argmax(undefined)]}"
        )
    return centre, (fp - fm) / (2.0 * steps), steps


def finite_difference_gradient(f, at: InputVector) -> np.ndarray:
    """Central differences with step max(1e-6 |q|, 1e-10) per component, from
    one batched call of f; a vector-valued f gives one row per component."""
    return _central_differences(f, at)[1]


def jacobian(f, at: InputVector) -> np.ndarray:
    """Gradient of an estimator, computed analytically and cross-checked
    against central finite differences; disagreement beyond 1e-6 relative
    raises NumericalInstabilityError.  A vector-valued estimator gets the
    same check row by row."""
    if not hasattr(f, "gradient"):
        raise TypeError("estimator must expose an analytic .gradient")
    analytic = np.asarray(f.gradient(at.values), dtype=float)
    centre, fd, steps = _central_differences(f, at)
    # Two noise floors limit what central differences can certify: components
    # many decades below the gradient norm sit under the cancellation noise
    # of the fixed relative step, and every difference quotient carries an
    # absolute rounding floor of order eps * |f| / h.
    scale = np.maximum(
        np.maximum(np.abs(analytic).max(axis=-1), np.abs(fd).max(axis=-1)), 1e-300
    )[..., None]
    f_scale = np.maximum(1.0, np.abs(centre))[..., None]
    rounding_floor = 16.0 * np.finfo(float).eps * f_scale / steps
    tol = (
        GRADIENT_AGREEMENT_RTOL * np.maximum(np.abs(analytic), np.abs(fd))
        + 1e-8 * scale
        + rounding_floor
    )
    bad = np.abs(analytic - fd) > tol
    if bad.any():
        worst = np.unravel_index(np.argmax(np.abs(analytic - fd)), analytic.shape)
        raise NumericalInstabilityError(
            f"analytic/finite-difference gradients disagree at {at.names[worst[-1]]}: "
            f"{analytic[worst]!r} vs {fd[worst]!r}"
        )
    return analytic


def propagate(gradient: np.ndarray, inputs: InputVector, target: str = "") -> UncertaintyBudget:
    """combined^2 = g^T Sigma g (full covariance when present, else the
    diagonal); contributions are the signed g_i * u(q_i)."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != inputs.values.shape:
        raise DomainError("gradient and inputs must share ordering and length")
    contributions = g * inputs.uncertainties
    if inputs.covariance is not None:
        combined = float(math.sqrt(max(g @ inputs.covariance @ g, 0.0)))
    else:
        combined = float(math.sqrt(np.sum(contributions**2)))
    return UncertaintyBudget(target, inputs.names, contributions, combined)


def budget_for(f, inputs: InputVector) -> UncertaintyBudget:
    """Jacobian plus propagation in one step."""
    return propagate(jacobian(f, inputs), inputs, target=getattr(f, "name", ""))
