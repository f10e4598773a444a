"""Detection model and closed-form efficiency estimators.

The forward model maps a detector efficiency, a herald purity and a
background photon-number distribution to the photon-number distribution
observed in heralded gates.  Each photon-number bin then yields an
independent closed-form estimate of the efficiency, plus the click/no-click
(Klyshko-style) contraction and an inverse-variance weighted combination.

`gamma_estimates` is the one place these formulas and their derivatives
are written: it maps raw ON/OFF counts and the herald purity to every
estimate and the full Jacobian.  The distribution-level estimators here,
the estimator views in the uncertainty module, the calibration report and
the closure test all read from it.

Efficiencies are carried as dimensionless fractions everywhere; rendering
in percent happens only in the report layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UninformativeBinError

OUT_OF_RANGE = "out-of-range"
EIGHT_ULP = 8.0 * float(np.spacing(1.0))


def _sum_or_one(v: np.ndarray) -> np.ndarray:
    """The sum of `v` over its last axis (kept), or 1 where it lies within 8 ulp
    of 1: renormalising moves entries by an ulp, which P(i) - B(i) magnifies."""
    total = v.sum(axis=-1, keepdims=True)
    total[abs(total - 1.0) <= EIGHT_ULP] = 1.0
    return total


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Probability of detecting i photons per gate, i = 0..K."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("distribution needs a 1-D, non-empty vector")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise DomainError("probabilities must be finite and >= 0")
        if p.sum() <= 0:
            raise DomainError("probabilities sum to zero")
        p = p / _sum_or_one(p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def padded(self, k: int) -> np.ndarray:
        """Probabilities extended with zeros up to index k."""
        if k < self.k_max:
            raise DomainError("cannot truncate support")
        out = np.zeros(k + 1)
        out[: self.probs.size] = self.probs
        return out


@dataclass(frozen=True)
class CountVector:
    """Per-photon-number event counts (real-valued)."""

    counts: np.ndarray
    uncertainties: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        u = np.asarray(self.uncertainties, dtype=float)
        if c.ndim != 1 or c.shape != u.shape:
            raise DomainError("counts and uncertainties must be 1-D and equal length")
        if np.any(c < 0) or np.any(u < 0):
            raise DomainError("counts and uncertainties must be >= 0")
        c.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "uncertainties", u)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class HeraldStats:
    """Heralding counts with the pump on and off."""

    n_on: float
    n_off: float
    u_on: float | None = None
    u_off: float | None = None

    def __post_init__(self):
        if self.n_on <= 0:
            raise DomainError("n_on must be > 0")
        if not 0 <= self.n_off <= self.n_on:
            raise DomainError("need 0 <= n_off <= n_on")
        # Poisson defaults when the caller gives no uncertainties.
        if self.u_on is None:
            object.__setattr__(self, "u_on", math.sqrt(self.n_on))
        if self.u_off is None:
            object.__setattr__(self, "u_off", math.sqrt(self.n_off))
        if self.u_on < 0 or self.u_off < 0:
            raise DomainError("uncertainties must be >= 0")


@dataclass(frozen=True)
class HeraldPurity:
    """Probability that a heralding count is genuine."""

    xi: float
    u_xi: float = 0.0

    def __post_init__(self):
        if not 0 <= self.xi <= 1:
            raise DomainError("xi must lie in [0, 1]")
        if self.u_xi < 0:
            raise DomainError("u_xi must be >= 0")


@dataclass(frozen=True)
class EfficiencyEstimate:
    """A single efficiency value (fraction) with uncertainty and provenance."""

    gamma: float
    u_gamma: float
    source: str
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.u_gamma < 0:
            raise DomainError("u_gamma must be >= 0")
        flags = set(self.flags)
        if not 0 <= self.gamma <= 1:
            flags.add(OUT_OF_RANGE)
        object.__setattr__(self, "flags", frozenset(flags))

    @property
    def in_range(self) -> bool:
        return OUT_OF_RANGE not in self.flags


def forward_distribution(
    gamma: float, xi: float, background: PhotonNumberDistribution
) -> PhotonNumberDistribution:
    """Photon-number distribution in heralded gates.

    P(0) = xi*(1-gamma)*B(0) + (1-xi)*B(0) and, for i >= 1,
    P(i) = xi*[(1-gamma)*B(i) + gamma*B(i-1)] + (1-xi)*B(i),
    with B the background distribution extended by B(K+1) = 0.
    """
    if not 0 <= gamma <= 1:
        raise DomainError("gamma must lie in [0, 1]")
    if not 0 <= xi <= 1:
        raise DomainError("xi must lie in [0, 1]")
    b = background.probs
    stay = np.append(b, 0.0)
    shifted = np.concatenate(([0.0], b))
    p = xi * ((1.0 - gamma) * stay + gamma * shifted) + (1.0 - xi) * stay
    return PhotonNumberDistribution(p)


def counts_to_distribution(c: CountVector) -> PhotonNumberDistribution:
    """Empirical probabilities P(i) = C(i) / sum_j C(j)."""
    if c.total <= 0:
        raise DomainError("total count must be > 0")
    return PhotonNumberDistribution(c.counts / c.total)


def estimate_xi(h: HeraldStats) -> HeraldPurity:
    """Herald purity xi = 1 - n_off/n_on with first-order uncertainty."""
    xi = 1.0 - h.n_off / h.n_on
    var = (h.n_off / h.n_on**2 * h.u_on) ** 2 + (h.u_off / h.n_on) ** 2
    return HeraldPurity(xi, math.sqrt(var))


def _shared_support(
    p_on: PhotonNumberDistribution, p_off: PhotonNumberDistribution
) -> tuple[np.ndarray, np.ndarray]:
    k = max(p_on.k_max, p_off.k_max)
    if not (p_off.k_max <= p_on.k_max <= p_off.k_max + 1):
        raise DomainError("distributions do not share a compatible support")
    return p_on.padded(k), p_off.padded(k)


def estimate_names(k: int) -> list[str]:
    """Names of the rows of `gamma_estimates` for k photon-number bins."""
    return [f"gamma{i}" for i in range(k)] + ["gammaK"]


@functools.lru_cache(maxsize=16)
def _selection(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant matrices of the core for k bins: numerator = (P - B) @ sign.T,
    denominator = B @ diff.T (plus 1 for gamma_K)."""
    i = np.arange(1, k)
    sign = np.zeros((k + 1, k))
    sign[0, 0] = sign[k, 0] = -1.0
    sign[i, i] = 1.0
    diff = np.zeros((k + 1, k))
    diff[0, 0] = 1.0
    diff[i, i - 1] = 1.0
    diff[i, i] = -1.0
    sign.setflags(write=False)
    diff.setflags(write=False)
    return sign, diff


def gamma_estimates(c_on, c_off, xi) -> tuple[np.ndarray, np.ndarray]:
    """Every closed-form estimate and its Jacobian, from raw counts.

    With P = C_on / sum(C_on) and B = C_off / sum(C_off) over k bins:
    gamma_0 = (B(0) - P(0)) / (xi * B(0)),
    gamma_i = (P(i) - B(i)) / (xi * (B(i-1) - B(i))) for 1 <= i < k, and
    gamma_K = (B(0) - P(0)) / xi, the click/no-click contraction.
    Since P(0) = B(0) (1 - xi gamma), gamma_K estimates gamma B(0), not
    gamma: it is biased by -gamma (1 - B(0)), about -0.3 % of gamma at the
    published background (B(0) = 0.997).
    Returns the values [gamma_0 .. gamma_{k-1}, gamma_K] and their
    (k+1) x (2k+1) Jacobian over (C_on, C_off, xi), the order of
    `uncertainty.counting_inputs`.  Any leading batch axes broadcast:
    `c_on` and `c_off` of shape (..., k) and `xi` of shape (...) give
    values of shape (..., k+1) and a Jacobian of shape (..., k+1, 2k+1);
    each point's values and Jacobian equal those of a call on that point
    alone, bit for bit.  An estimate whose denominator
    vanishes comes back non-finite, without a warning; callers decide what
    an undefined bin means.
    """
    c_on = np.asarray(c_on, dtype=float)
    c_off = np.asarray(c_off, dtype=float)
    xi = np.asarray(xi, dtype=float)[..., None]
    k = c_on.shape[-1]
    sign, diff = _selection(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        s, t = _sum_or_one(c_on), _sum_or_one(c_off)
        p, b = c_on / s, c_off / t
        den = b @ diff.T
        den[..., k] = 1.0
        values = ((p - b) @ sign.T) / (xi * den)
        # d gamma / d numerator = 1 / (xi den); d gamma / d den = -gamma / den
        d_p = (1.0 / (xi * den))[..., None] * sign
        d_b = -d_p - (values / den)[..., None] * diff
        # dP_a/dC_j = (delta_aj - P_a) / S, and the same for B over T
        jac = np.concatenate(
            [
                (d_p - d_p @ p[..., None]) / s[..., None],
                (d_b - d_b @ b[..., None]) / t[..., None],
                (-values / xi)[..., None],
            ],
            axis=-1,
        )
    return values, jac


def require_defined(values: np.ndarray, bins) -> None:
    """Raise UninformativeBinError for the first of `bins` whose
    `gamma_estimates` value is undefined."""
    for i in bins:
        if not np.isfinite(values[i]):
            if i == 0:
                raise UninformativeBinError("B(0) = 0: gamma_0 undefined")
            raise UninformativeBinError(
                f"B({i - 1}) = B({i}): gamma_{i} denominator vanishes"
            )


def estimate_gamma(
    i: int,
    p_on: PhotonNumberDistribution,
    p_off: PhotonNumberDistribution,
    xi: HeraldPurity,
) -> EfficiencyEstimate:
    """gamma_i of `gamma_estimates` on the heralded distribution P and the
    non-heralded distribution B.  The uncertainty field is left at zero;
    propagation lives in the uncertainty module.  Out-of-range values are
    flagged, never clamped.
    """
    if i < 0:
        raise DomainError("photon-number index must be >= 0")
    if xi.xi <= 0:
        raise DomainError("xi must be > 0")
    p, b = _shared_support(p_on, p_off)
    if i >= p.size:
        raise DomainError(f"index {i} outside support 0..{p.size - 1}")
    values, _ = gamma_estimates(p, b, xi.xi)
    require_defined(values, [i])
    return EfficiencyEstimate(float(values[i]), 0.0, f"gamma{i}")


def klyshko_estimate(
    p_on: PhotonNumberDistribution,
    p_off: PhotonNumberDistribution,
    xi: HeraldPurity,
) -> EfficiencyEstimate:
    """Click/no-click contraction gamma_K of `gamma_estimates`: the excess
    click probability in heralded gates, [(1 - P(0)) - (1 - B(0))], divided
    by the herald purity.  It estimates gamma B(0), so it is biased by
    -gamma (1 - B(0)).
    """
    if xi.xi <= 0:
        raise DomainError("xi must be > 0")
    p, b = _shared_support(p_on, p_off)
    values, _ = gamma_estimates(p, b, xi.xi)
    return EfficiencyEstimate(float(values[-1]), 0.0, "klyshko")


def weighted_mean(estimates: list[EfficiencyEstimate]) -> EfficiencyEstimate:
    """Inverse-variance weighted mean; u = (sum 1/u_i^2)^(-1/2)."""
    if not estimates:
        raise DomainError("need at least one estimate")
    if any(e.u_gamma <= 0 for e in estimates):
        raise DomainError("all estimates need u_gamma > 0 for weighting")
    w = np.array([1.0 / e.u_gamma**2 for e in estimates])
    g = np.array([e.gamma for e in estimates])
    mean = float(np.dot(w, g) / w.sum())
    u = float(1.0 / math.sqrt(w.sum()))
    return EfficiencyEstimate(mean, u, "weighted-mean")
