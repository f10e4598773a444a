"""Golden regression of calibrate_counts on the published table.

The numbers below were frozen from the implementation that computed each
estimator twice (once on distributions, once with hand-written gradients on
raw counts).  Every estimate, u, budget contribution and the weighted mean
must stay within 1e-12 relative of them, with and without a correlated
pedestal covariance.
"""

import numpy as np
import pytest

from pnrcal import uncertainty as unc
from pnrcal.errors import UninformativeBinError
from pnrcal.model import CountVector, HeraldPurity, gamma_estimates
from pnrcal.reports import calibrate_counts

ON = CountVector(np.array([5.069e6, 5.0200e4, 118.0]), np.array([1.4e4, 200.0, 6.0]))
OFF = CountVector(np.array([5.103e6, 1.4600e4, 23.9]), np.array([1.4e4, 150.0, 1.5]))
XI = HeraldPurity(0.98794, 7e-5)
U = np.array([1.4e4, 200.0, 6.0, 1.4e4, 150.0, 1.5, 7e-5])

GOLDEN_FRACTIONS = {
    "gamma0": 0.007076811884777333,
    "gamma1": 0.0070784061540553915,
    "gamma2": 0.006531868862227987,
    "gammaK": 0.007056589494202325,
}

# signed contributions g_j * u(q_j) as fractions; a covariance changes only
# how they combine, not the contributions themselves
GOLDEN_CONTRIBUTIONS = {
    "gamma0": {
        "C_on_0": -2.7285971360163762e-05, "C_on_1": 3.9268137168939656e-05,
        "C_on_2": 1.1780441150681896e-06, "C_off_0": 7.879882135428708e-06,
        "C_off_1": -2.946085214987493e-05, "C_off_2": -2.946085214987493e-07,
        "xi": -5.014240054400119e-07,
    },
    "gamma1": {
        "C_on_0": -2.730009068632721e-05, "C_on_1": 3.938172484339601e-05,
        "C_on_2": -1.1700038865568805e-08, "C_off_0": 7.833912481802506e-06,
        "C_off_1": -2.9337408084242986e-05, "C_off_2": 2.9259779897662055e-09,
        "xi": -5.015369666010866e-07,
    },
    "gamma2": {
        "C_on_0": -2.2401767455463066e-05, "C_on_1": -3.2002524936375805e-07,
        "C_on_2": 0.0004165101499685466, "C_off_0": 2.2409183169276325e-05,
        "C_off_1": -6.697817874298986e-05, "C_off_2": -0.00010348982432323479,
        "xi": -4.6281233714189036e-07,
    },
    "gammaK": {
        "C_on_0": -2.7208000152358928e-05, "C_on_1": 3.915592624403271e-05,
        "C_on_2": 1.1746777873209814e-06, "C_off_0": 7.912686198988325e-06,
        "C_off_1": -2.95834981044508e-05, "C_off_2": -2.95834981044508e-07,
        "xi": -4.999911579591421e-07,
    },
}

GOLDEN_U = {
    "diagonal": {
        "gamma0": 5.6729808652970044e-05,
        "gamma1": 5.6732006713827036e-05,
        "gamma2": 0.0004355241123977702,
        "gammaK": 5.6683094240669934e-05,
    },
    "pedestal": {
        "gamma0": 5.320951757833181e-05,
        "gamma1": 5.323120182421386e-05,
        "gamma2": 0.0004344854921875535,
        "gammaK": 5.315500081406182e-05,
    },
}

GOLDEN_WEIGHTED_MEAN = {
    "diagonal": (0.0070730180437876475, 3.994572369069961e-05),
    "pedestal": (0.0070735450590551485, 3.749210544775787e-05),
}


def pedestal_covariance():
    """The two pedestal counts correlated at rho = 0.9 (shared pump drift)."""
    cov = np.diag(U**2)
    cov[0, 3] = cov[3, 0] = 0.9 * U[0] * U[3]
    return cov


@pytest.mark.parametrize("case", ["diagonal", "pedestal"])
def test_published_table_matches_golden(case):
    cov = pedestal_covariance() if case == "pedestal" else None
    result = calibrate_counts(ON, OFF, XI, covariance=cov)
    assert sorted(result.estimates) == sorted(GOLDEN_FRACTIONS)
    for name, fraction in GOLDEN_FRACTIONS.items():
        e = result.estimates[name]
        assert e.gamma == pytest.approx(fraction, rel=1e-12, abs=0)
        assert e.u_gamma == pytest.approx(GOLDEN_U[case][name], rel=1e-12, abs=0)
        budget = result.budgets[name]
        assert budget.combined == pytest.approx(GOLDEN_U[case][name], rel=1e-12, abs=0)
        got = budget.as_dict()
        assert sorted(got) == sorted(GOLDEN_CONTRIBUTIONS[name])
        for quantity, contribution in GOLDEN_CONTRIBUTIONS[name].items():
            assert got[quantity] == pytest.approx(contribution, rel=1e-12, abs=0), (
                name, quantity)
    mean, u = GOLDEN_WEIGHTED_MEAN[case]
    assert result.combined.gamma == pytest.approx(mean, rel=1e-12, abs=0)
    assert result.combined.u_gamma == pytest.approx(u, rel=1e-12, abs=0)


@pytest.mark.parametrize("case", ["diagonal", "covariance", "count_covariance"])
def test_estimator_core_evaluated_once(monkeypatch, case):
    # values, analytic Jacobian and finite differences from one batch
    calls = []

    def counted(*args):
        calls.append(args)
        return gamma_estimates(*args)

    monkeypatch.setattr(unc, "gamma_estimates", counted)
    cov = pedestal_covariance()
    if case == "count_covariance":
        calibrate_counts(ON, OFF, XI, count_covariance=cov[:-1, :-1])
    else:
        calibrate_counts(ON, OFF, XI, covariance=cov if case == "covariance" else None)
    assert len(calls) == 1


def test_undefined_bin_named_before_the_cross_check():
    # every perturbed point but C_off_0's is undefined too; the bin is named
    # first, not a perturbed input
    off = CountVector(np.array([0.0, 1.46e4, 23.9]), OFF.uncertainties)
    with pytest.raises(UninformativeBinError) as raised:
        calibrate_counts(ON, off, XI)
    assert str(raised.value) == "B(0) = 0: gamma_0 undefined"
