"""First-order uncertainty propagation and contribution budgets.

Every efficiency estimator is a smooth function of the raw inputs: the
per-photon-number counts of the heralded (ON) and non-heralded (OFF)
spectra plus the herald purity.  This module carries those inputs with
their uncertainties (and optionally a full covariance), evaluates the
estimator core `model.gamma_estimates` (all estimates and their analytic
Jacobian) once on the inputs stacked over every central-difference
neighbour, cross-checks the Jacobian against those differences, and turns
all its rows into per-input contribution budgets in one `propagate`.

An estimator is evaluated on input values, not on an `InputVector`:
`f.evaluate(q)` gives the values and analytic gradient at each point of q
of shape (..., n), in the order of the `InputVector` it is checked on.
"""

from __future__ import annotations

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
    count_covariance: np.ndarray | None = None,
) -> InputVector:
    """Pack ON counts, OFF counts and the herald purity into one vector,
    with an optional covariance of all of them in the same order, or of the
    ON then OFF counts alone (`count_covariance`, as from
    `histogram.count_photons`), the herald purity independent of them."""
    if on.counts.size != off.counts.size:
        raise DomainError("ON and OFF count vectors must share length")
    k = on.counts.size
    names = [f"C_on_{i}" for i in range(k)] + [f"C_off_{i}" for i in range(k)] + ["xi"]
    values = np.concatenate([on.counts, off.counts, [xi.xi]])
    u = np.concatenate([on.uncertainties, off.uncertainties, [xi.u_xi]])
    if count_covariance is not None:
        if covariance is not None:
            raise DomainError("pass the covariance of all inputs or of the counts, not both")
        covariance = np.pad(np.asarray(count_covariance, dtype=float), (0, 1))
        covariance[-1, -1] = xi.u_xi**2
    return InputVector(tuple(names), values, u, covariance)


class CountingEstimators:
    """Every estimate of `model.gamma_estimates` as one vector-valued
    estimator of `counting_inputs` values: [gamma_0 .. gamma_{k-1},
    gamma_K] and their Jacobian, over any leading batch axes."""

    row = slice(None)

    def evaluate(self, q) -> tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=float)
        n = q.shape[-1]
        if n % 2 != 1 or n < 3:
            raise DomainError("expected 2k counts plus xi")
        k = (n - 1) // 2
        if isinstance(self.row, int) and self.row >= k:
            raise DomainError(f"index {self.row} outside support 0..{k - 1}")
        values, jac = gamma_estimates(q[..., :k], q[..., k : 2 * k], q[..., -1])
        return values[..., self.row], jac[..., self.row, :]


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


def _evaluate(f, at: InputVector, require=None) -> tuple[np.ndarray, ...]:
    """f's values and analytic gradient at `at`, its central differences and
    their steps, from one evaluation of f on the centre stacked over every
    perturbed point; `require` may reject the values at the centre first."""
    q = at.values
    n = q.size
    steps = np.maximum(FD_REL_STEP * np.abs(q), FD_MIN_STEP)
    shift = np.diag(steps)
    values, gradients = f.evaluate(np.concatenate([q[None], q + shift, q - shift]))
    out = np.moveaxis(np.asarray(values, dtype=float), 0, -1)
    centre, fp, fm = out[..., 0], out[..., 1 : n + 1], out[..., n + 1 :]
    if require is not None:
        require(centre)
    undefined = ~(np.isfinite(fp) & np.isfinite(fm)).reshape(-1, n).all(axis=0)
    if undefined.any():
        raise DomainError(
            f"estimator undefined at perturbed {at.names[np.argmax(undefined)]}"
        )
    return centre, np.asarray(gradients, dtype=float)[0], (fp - fm) / (2.0 * steps), steps


def finite_difference_gradient(f, at: InputVector) -> np.ndarray:
    """Central differences with step max(1e-6 |q|, 1e-10) per component, from
    one batched evaluation of f; a vector-valued f gives one row per component."""
    return _evaluate(f, at)[2]


def values_and_jacobian(f, at: InputVector, require=None) -> tuple[np.ndarray, np.ndarray]:
    """f's values at `at` and its analytic gradient, from one evaluation of f;
    `require(values)`, if given, may reject the values before the gradient is
    checked against central differences.  Disagreement beyond 1e-6 relative,
    row by row, raises NumericalInstabilityError naming the worst violation."""
    if not hasattr(f, "evaluate"):
        raise TypeError("estimator must expose .evaluate with an analytic gradient")
    centre, analytic, fd, steps = _evaluate(f, at, require)
    # Two noise floors limit what central differences can certify: components
    # many decades below the gradient norm sit under the cancellation noise
    # of the fixed relative step, and every difference quotient carries an
    # absolute rounding floor of order eps * |f| / h.
    larger = np.maximum(np.abs(analytic), np.abs(fd))
    scale = np.maximum(larger.max(axis=-1), 1e-300)[..., None]
    f_scale = np.maximum(1.0, np.abs(centre))[..., None]
    rounding_floor = 16.0 * np.finfo(float).eps * f_scale / steps
    tol = GRADIENT_AGREEMENT_RTOL * larger + 1e-8 * scale + rounding_floor
    bad = np.abs(analytic - fd) > tol
    if bad.any():
        excess = np.where(bad, np.abs(analytic - fd) / tol, 0.0)
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        row = f" in row {worst[0]}" if analytic.ndim > 1 else ""
        raise NumericalInstabilityError(
            f"analytic/finite-difference gradients disagree{row} at "
            f"{at.names[worst[-1]]}: {float(analytic[worst])} vs {float(fd[worst])}"
        )
    return centre, analytic


def jacobian(f, at: InputVector) -> np.ndarray:
    """The cross-checked analytic gradient of `values_and_jacobian`."""
    return values_and_jacobian(f, at)[1]


def propagate(
    gradient: np.ndarray, inputs: InputVector, target: str | list[str] = ""
) -> UncertaintyBudget | list[UncertaintyBudget]:
    """combined^2 = g^T Sigma g (full covariance when present, else the
    diagonal); contributions are the signed g_i * u(q_i).  A (rows, n)
    gradient gives a list of every row's budget, named in order by `target`."""
    g = np.asarray(gradient, dtype=float)
    if g.ndim == 1:
        return propagate(g[None], inputs, [target])[0]
    if g.ndim != 2 or g.shape[1:] != inputs.values.shape or len(target) != len(g):
        raise DomainError("gradient rows, targets and inputs must share ordering and length")
    contributions = g * inputs.uncertainties
    if inputs.covariance is not None:
        # one g @ Sigma @ g per row, summed as for a single row
        variance = (g[:, None, :] @ inputs.covariance @ g[:, :, None])[:, 0, 0]
    else:
        variance = np.sum(contributions**2, axis=-1)
    combined = np.sqrt(np.maximum(variance, 0.0))
    return [UncertaintyBudget(t, inputs.names, c, float(u))
            for t, c, u in zip(target, contributions, combined)]


def budget_for(f, inputs: InputVector) -> UncertaintyBudget:
    """Jacobian plus propagation in one step."""
    return propagate(jacobian(f, inputs), inputs, target=getattr(f, "name", ""))
