import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrcal.errors import DomainError, UninformativeBinError
from pnrcal.model import (
    OUT_OF_RANGE,
    CountVector,
    EfficiencyDecomposition,
    EfficiencyEstimate,
    HeraldPurity,
    HeraldStats,
    PhotonNumberDistribution,
    counts_to_distribution,
    estimate_gamma,
    estimate_xi,
    forward_distribution,
    gamma_estimates,
    klyshko_estimate,
    weighted_mean,
)

# published count vectors used as a realistic regression fixture
C_ON = (5.069e6, 5.0200e4, 118.0)
C_OFF = (5.103e6, 1.4600e4, 23.9)
XI = 0.98794


def table_background():
    return PhotonNumberDistribution(np.array(C_OFF) / sum(C_OFF))


def delta0(k=0):
    return PhotonNumberDistribution(np.array([1.0] + [0.0] * k))


# independent oracle: plain arithmetic on the defining formulas
def oracle_gamma(i, c_on, c_off, xi):
    p = [c / sum(c_on) for c in c_on]
    b = [c / sum(c_off) for c in c_off]
    if i == 0:
        return (b[0] - p[0]) / (xi * b[0])
    return (p[i] - b[i]) / (xi * (b[i - 1] - b[i]))


class TestPhotonNumberDistribution:
    def test_normalizes(self):
        d = PhotonNumberDistribution([2.0, 1.0, 1.0])
        assert d.probs.tolist() == [0.5, 0.25, 0.25]
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            PhotonNumberDistribution([0.5, -0.1, 0.6])

    def test_rejects_zero_sum(self):
        with pytest.raises(DomainError):
            PhotonNumberDistribution([0.0, 0.0])

    def test_padding(self):
        d = PhotonNumberDistribution([1.0, 1.0])
        assert d.padded(3).tolist() == [0.5, 0.5, 0.0, 0.0]
        with pytest.raises(DomainError):
            d.padded(0)


class TestCountVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            CountVector(np.array([1.0, -1.0]), np.array([0.1, 0.1]))
        with pytest.raises(DomainError):
            CountVector(np.array([1.0]), np.array([0.1, 0.1]))

    def test_total(self):
        cv = CountVector(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert cv.total == 3.0


class TestForwardDistribution:
    def test_zero_gamma_is_background(self):
        b = table_background()
        p = forward_distribution(0.0, 0.5, b)
        assert p.k_max == b.k_max + 1
        assert np.allclose(p.probs[:-1], b.probs, atol=1e-15)
        assert p.probs[-1] == 0.0

    def test_unit_gamma_pure_herald_shifts(self):
        p = forward_distribution(1.0, 1.0, delta0())
        assert p.probs.tolist() == [0.0, 1.0]

    def test_table_inputs(self):
        # direct arithmetic oracle on the published inputs
        b = np.array(C_OFF) / sum(C_OFF)
        g, xi = 0.0070749, XI
        expected_p0 = xi * (1 - g) * b[0] + (1 - xi) * b[0]
        assert abs(expected_p0 - 0.990172) < 1e-6
        p = forward_distribution(g, xi, table_background())
        assert abs(p[0] - expected_p0) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            forward_distribution(-0.1, 0.5, delta0())
        with pytest.raises(DomainError):
            forward_distribution(0.5, 1.5, delta0())

    @given(
        gamma=st.floats(0.0, 1.0),
        xi=st.floats(0.0, 1.0),
        raw=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    )
    def test_normalization_property(self, gamma, xi, raw):
        b = np.array(raw) / sum(raw)
        # recompute the defining expression directly as the oracle
        stay = np.append(b, 0.0)
        shifted = np.concatenate([[0.0], b])
        raw_p = xi * ((1 - gamma) * stay + gamma * shifted) + (1 - xi) * stay
        assert abs(raw_p.sum() - 1.0) < 1e-12
        p = forward_distribution(gamma, xi, PhotonNumberDistribution(b))
        assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_p0_strictly_decreasing_in_gamma(self):
        b = table_background()
        xi = 0.9
        values = [forward_distribution(g, xi, b)[0] for g in np.linspace(0, 1, 11)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))


class TestCountsToDistribution:
    def test_trivial(self):
        cv = CountVector(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        assert counts_to_distribution(cv).probs.tolist() == [1.0, 0.0, 0.0]

    def test_table_row(self):
        cv = CountVector(np.array(C_ON), np.zeros(3))
        d = counts_to_distribution(cv)
        total = sum(C_ON)
        expected = [c / total for c in C_ON]  # long division oracle
        assert np.allclose(d.probs, expected, rtol=1e-15)
        assert abs(d[1] - 0.0098060) < 1e-7
        assert abs(d[2] - 2.3050e-5) < 1e-9

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError):
            counts_to_distribution(CountVector(np.zeros(2), np.zeros(2)))

    @given(
        raw=st.lists(st.floats(0.1, 1e6), min_size=2, max_size=5),
        k=st.floats(1e-6, 1e6),
    )
    def test_scale_invariance(self, raw, k):
        c = np.array(raw)
        base = counts_to_distribution(CountVector(c, np.zeros_like(c)))
        scaled = counts_to_distribution(CountVector(k * c, np.zeros_like(c)))
        assert np.allclose(base.probs, scaled.probs, rtol=1e-12, atol=1e-15)


class TestEstimateXi:
    def test_paper_value(self):
        purity = estimate_xi(HeraldStats(n_on=1_000_000, n_off=12_060))
        assert abs(purity.xi - 0.98794) < 1e-12
        assert purity.u_xi > 0

    def test_limits(self):
        assert estimate_xi(HeraldStats(1000, 0)).xi == 1.0
        assert estimate_xi(HeraldStats(1000, 1000)).xi == 0.0

    def test_uncertainty_propagation(self):
        h = HeraldStats(n_on=1e6, n_off=1e4, u_on=100.0, u_off=50.0)
        purity = estimate_xi(h)
        expected = math.sqrt((1e4 / 1e12 * 100.0) ** 2 + (50.0 / 1e6) ** 2)
        assert abs(purity.u_xi - expected) < 1e-18

    def test_negative_purity_rejected(self):
        with pytest.raises(DomainError):
            HeraldStats(n_on=100, n_off=200)


class TestEstimateGamma:
    def test_table_values(self):
        p_on = counts_to_distribution(CountVector(np.array(C_ON), np.zeros(3)))
        p_off = counts_to_distribution(CountVector(np.array(C_OFF), np.zeros(3)))
        xi = HeraldPurity(XI)
        for i, published, tol in ((0, 0.709, 2e-3), (1, 0.709, 2e-3), (2, 0.65, 1e-2)):
            est = estimate_gamma(i, p_on, p_off, xi)
            assert abs(est.gamma - oracle_gamma(i, C_ON, C_OFF, XI)) < 1e-15
            assert abs(est.gamma * 100 - published) < tol

    def test_identical_distributions_give_zero(self):
        d = table_background()
        xi = HeraldPurity(0.9)
        for i in range(3):
            assert estimate_gamma(i, d, d, xi).gamma == 0.0

    def test_uninformative_bins(self):
        p_on = PhotonNumberDistribution([0.5, 0.3, 0.2])
        flat = PhotonNumberDistribution([0.4, 0.4, 0.2])
        with pytest.raises(UninformativeBinError):
            estimate_gamma(1, p_on, flat, HeraldPurity(0.9))
        no_vacuum = PhotonNumberDistribution([0.0, 0.6, 0.4])
        with pytest.raises(UninformativeBinError):
            estimate_gamma(0, p_on, no_vacuum, HeraldPurity(0.9))

    def test_core_undefined_bins_are_non_finite(self):
        # B(0) = 0 leaves gamma_0 undefined and B(1) = B(2) leaves gamma_2
        # undefined; neither may warn (warnings fail the suite)
        values, jac = gamma_estimates([5.0, 3.0, 2.0], [0.0, 4.0, 4.0], 0.9)
        assert list(np.isfinite(values)) == [False, True, False, True]
        assert np.all(np.isfinite(jac[[1, 3]]))

    @given(
        gamma=st.floats(1e-6, 1.0),
        xi=st.floats(1e-3, 1.0),
        decay=st.floats(0.05, 0.8),
    )
    @settings(max_examples=200)
    def test_round_trip(self, gamma, xi, decay):
        b = PhotonNumberDistribution(decay ** np.arange(4))
        p = forward_distribution(gamma, xi, b)
        purity = HeraldPurity(xi)
        for i in range(p.k_max + 1):
            est = estimate_gamma(i, p, b, purity)
            assert abs(est.gamma - gamma) < 1e-12

    def test_bad_index(self):
        d = table_background()
        with pytest.raises(DomainError):
            estimate_gamma(-1, d, d, HeraldPurity(0.9))
        with pytest.raises(DomainError):
            estimate_gamma(10, d, d, HeraldPurity(0.9))


class TestKlyshko:
    def test_table_value(self):
        p_on = counts_to_distribution(CountVector(np.array(C_ON), np.zeros(3)))
        p_off = counts_to_distribution(CountVector(np.array(C_OFF), np.zeros(3)))
        est = klyshko_estimate(p_on, p_off, HeraldPurity(XI))
        p = [c / sum(C_ON) for c in C_ON]
        b = [c / sum(C_OFF) for c in C_OFF]
        assert abs(est.gamma - (b[0] - p[0]) / XI) < 1e-15
        assert abs(est.gamma * 100 - 0.707) < 0.004

    def test_identical_distributions(self):
        d = table_background()
        assert klyshko_estimate(d, d, HeraldPurity(0.9)).gamma == 0.0

    @given(gamma=st.floats(0.0, 1.0), xi=st.floats(1e-3, 1.0))
    def test_background_free_recovers_gamma(self, gamma, xi):
        p = forward_distribution(gamma, xi, delta0())
        purity = HeraldPurity(xi)
        est = klyshko_estimate(p, delta0(), purity)
        assert abs(est.gamma - gamma) < 1e-12
        # on a background-free input Klyshko equals the vacuum estimator
        g0 = estimate_gamma(0, p, delta0(), purity)
        assert abs(est.gamma - g0.gamma) < 1e-15


class TestWeightedMean:
    def test_paper_combination(self):
        ests = [
            EfficiencyEstimate(0.00709, 0.00003, "gamma0"),
            EfficiencyEstimate(0.00709, 0.00003, "gamma1"),
            EfficiencyEstimate(0.0065, 0.0005, "gamma2"),
        ]
        mean = weighted_mean(ests)
        assert abs(mean.gamma * 100 - 0.709) < 5e-4
        assert abs(mean.u_gamma * 100 - 0.002) < 5e-4

    def test_single_estimate(self):
        e = EfficiencyEstimate(0.5, 0.1, "gamma0")
        m = weighted_mean([e])
        assert m.gamma == e.gamma and abs(m.u_gamma - e.u_gamma) < 1e-15

    @given(a=st.floats(0.0, 1.0), u=st.floats(1e-6, 1.0))
    def test_equal_weight_identity(self, a, u):
        m = weighted_mean(
            [EfficiencyEstimate(a, u, "gamma0"), EfficiencyEstimate(a, u, "gamma1")]
        )
        assert abs(m.gamma - a) < 1e-12
        assert abs(m.u_gamma - u / math.sqrt(2)) < 1e-12

    def test_errors(self):
        with pytest.raises(DomainError):
            weighted_mean([])
        with pytest.raises(DomainError):
            weighted_mean([EfficiencyEstimate(0.5, 0.0, "gamma0")])


class TestEfficiencyEstimate:
    def test_out_of_range_flagged_not_clamped(self):
        e = EfficiencyEstimate(-0.01, 0.02, "gamma0")
        assert e.gamma == -0.01
        assert OUT_OF_RANGE in e.flags and not e.in_range
        assert EfficiencyEstimate(0.5, 0.1, "gamma0").in_range

    def test_decomposition(self):
        d = EfficiencyDecomposition(tau=0.10, eta=0.07)
        assert abs(d.gamma - 0.007) < 1e-15
        with pytest.raises(DomainError):
            EfficiencyDecomposition(tau=1.2, eta=0.5)
