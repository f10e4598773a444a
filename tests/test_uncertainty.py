import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrcal.errors import DomainError, NumericalInstabilityError
from pnrcal.model import CountVector, HeraldPurity
from pnrcal.uncertainty import (
    CountingEstimators,
    GammaEstimator,
    InputVector,
    KlyshkoEstimator,
    budget_for,
    counting_inputs,
    finite_difference_gradient,
    jacobian,
    propagate,
)

C_ON = (5.069e6, 5.0200e4, 118.0)
U_ON = (1.4e4, 200.0, 6.0)
C_OFF = (5.103e6, 1.4600e4, 23.9)
U_OFF = (1.4e4, 150.0, 1.5)
XI, U_XI = 0.98794, 7e-5

# published budget of the vacuum-bin estimator, in percent; each entry is
# quoted to the digit shown, so agreement is asserted to one unit in the
# last printed digit
PUBLISHED_GAMMA0_BUDGET = {
    "C_on_0": (-2.729e-3, 1e-6),
    "C_on_1": (3.927e-3, 1e-6),
    "C_on_2": (1.178e-4, 1e-7),
    "C_off_0": (7.880e-4, 1e-7),
    "C_off_1": (-2.946e-3, 1e-6),
    "C_off_2": (-2.946e-5, 1e-8),
    "xi": (-5.014e-5, 1e-8),
}


def table_inputs(covariance=None):
    iv = counting_inputs(
        CountVector(np.array(C_ON), np.array(U_ON)),
        CountVector(np.array(C_OFF), np.array(U_OFF)),
        HeraldPurity(XI, U_XI),
    )
    if covariance is None:
        return iv
    return InputVector(iv.names, iv.values, iv.uncertainties, covariance)


class LinearFunctional:
    """Independent oracle: f(q) = c . q has gradient exactly c."""

    name = "linear"

    def __init__(self, coeff):
        self.coeff = np.asarray(coeff, dtype=float)

    def __call__(self, q):
        return np.asarray(q) @ self.coeff

    def gradient(self, q):
        return np.broadcast_to(self.coeff, np.shape(q)).copy()

    def evaluate(self, q):
        return self(q), self.gradient(q)


class TestInputVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            InputVector(("a",), np.array([1.0, 2.0]), np.array([0.1, 0.1]))
        with pytest.raises(DomainError):
            InputVector(("a", "b"), np.array([1.0, 2.0]), np.array([0.1, -0.1]))

    def test_covariance_checks(self):
        names = ("a", "b")
        v = np.array([1.0, 2.0])
        u = np.array([0.1, 0.2])
        good = np.array([[0.01, 0.005], [0.005, 0.04]])
        InputVector(names, v, u, good)
        with pytest.raises(DomainError):  # asymmetric
            InputVector(names, v, u, np.array([[0.01, 0.0], [0.005, 0.04]]))
        with pytest.raises(DomainError):  # diagonal != u^2
            InputVector(names, v, u, np.array([[0.02, 0.0], [0.0, 0.04]]))
        with pytest.raises(DomainError):  # not PSD
            InputVector(names, v, u, np.array([[0.01, 0.03], [0.03, 0.04]]))

    def test_count_covariance_padded_with_xi(self):
        on = CountVector(np.array(C_ON), np.array(U_ON))
        off = CountVector(np.array(C_OFF), np.array(U_OFF))
        xi = HeraldPurity(XI, U_XI)
        u = np.array(U_ON + U_OFF)
        counts = np.diag(u**2)
        counts[0, 3] = counts[3, 0] = 0.5 * u[0] * u[3]
        iv = counting_inputs(on, off, xi, count_covariance=counts)
        assert np.array_equal(iv.covariance[:-1, :-1], counts)
        assert not iv.covariance[-1, :-1].any() and not iv.covariance[:-1, -1].any()
        assert iv.covariance[-1, -1] == U_XI**2
        with pytest.raises(DomainError, match="not both"):
            counting_inputs(on, off, xi, iv.covariance, counts)
        with pytest.raises(DomainError, match="shape"):
            counting_inputs(on, off, xi, count_covariance=counts[:-1, :-1])


def per_column_differences(f, iv):
    """Reference central differences, one perturbed pair of calls per input."""
    q = iv.values
    columns = []
    for j in range(q.size):
        h = max(1e-6 * abs(q[j]), 1e-10)
        qp, qm = q.copy(), q.copy()
        qp[j] += h
        qm[j] -= h
        columns.append((f.evaluate(qp)[0] - f.evaluate(qm)[0]) / (2.0 * h))
    return np.stack(columns, axis=-1)


class TestJacobian:
    def test_batched_differences_equal_per_column_loop(self):
        rng = np.random.default_rng(3)
        points = [table_inputs()]
        for k in (2, 4, 5):
            on = rng.uniform(1e5, 1e6) * np.cumprod(rng.uniform(0.05, 0.9, k))
            off = rng.uniform(1e5, 1e6) * np.cumprod(rng.uniform(0.05, 0.9, k))
            points.append(counting_inputs(
                CountVector(on, np.sqrt(on)),
                CountVector(off, np.sqrt(off)),
                HeraldPurity(rng.uniform(0.5, 1.0), 1e-4),
            ))
        for iv in points:
            for f in (CountingEstimators(), GammaEstimator(1), KlyshkoEstimator()):
                assert np.array_equal(finite_difference_gradient(f, iv),
                                      per_column_differences(f, iv))

    def test_undefined_at_perturbed_point_names_input(self):
        class Cliff(LinearFunctional):
            """Finite at b = 2, undefined just above it."""

            def __call__(self, q):
                q = np.asarray(q)
                return np.where(q[..., 1] > 2.0, np.nan, super().__call__(q))

        f = Cliff([2.0, -3.0, 0.5])
        iv = InputVector(("a", "b", "c"), np.array([1.0, 2.0, 3.0]),
                         np.array([0.1, 0.1, 0.1]))
        assert np.isfinite(f(iv.values))
        for check in (finite_difference_gradient, jacobian):
            with pytest.raises(DomainError, match="undefined at perturbed b$"):
                check(f, iv)

    def test_linear_exact(self):
        f = LinearFunctional([2.0, -3.0, 0.5])
        iv = InputVector(("a", "b", "c"), np.array([1.0, 2.0, 3.0]),
                         np.array([0.1, 0.1, 0.1]))
        g = jacobian(f, iv)
        assert np.allclose(g, [2.0, -3.0, 0.5], rtol=1e-12)

    def test_finite_difference_matches_analytic_table(self):
        iv = table_inputs()
        for f in (GammaEstimator(0), GammaEstimator(1), GammaEstimator(2),
                  KlyshkoEstimator()):
            a = f.evaluate(iv.values)[1]
            fd = finite_difference_gradient(f, iv)
            scale = max(np.abs(a).max(), np.abs(fd).max())
            assert np.all(np.abs(a - fd) <= 1e-6 * np.maximum(np.abs(a), np.abs(fd))
                          + 1e-8 * scale)
            # jacobian() applies the same cross-check internally
            assert np.allclose(jacobian(f, iv), a, rtol=1e-12)

    def test_vector_estimator_checked_row_by_row(self):
        iv = table_inputs()
        core = CountingEstimators()
        g = jacobian(core, iv)
        assert g.shape == (4, iv.size)
        rows = (GammaEstimator(0), GammaEstimator(1), GammaEstimator(2),
                KlyshkoEstimator())
        for r, f in enumerate(rows):
            assert core.evaluate(iv.values)[0][r] == f.evaluate(iv.values)[0]
            assert np.array_equal(g[r], jacobian(f, iv))
        with pytest.raises(DomainError):
            GammaEstimator(3).evaluate(iv.values)  # row 3 is gamma_K, not a photon number

        class LyingRow(CountingEstimators):
            def evaluate(self, q):
                values, g = super().evaluate(q)
                g = g.copy()
                g[..., 2, 4] *= 1.5  # d gamma2 / d C_off_1
                return values, g

        with pytest.raises(NumericalInstabilityError):
            jacobian(LyingRow(), iv)

    def test_disagreement_raises(self):
        class Lying(LinearFunctional):
            def gradient(self, q):
                return 1.5 * super().gradient(q)

        iv = InputVector(("a", "b"), np.array([1.0, 2.0]), np.array([0.1, 0.1]))
        with pytest.raises(NumericalInstabilityError):
            jacobian(Lying([2.0, -3.0]), iv)

    def test_disagreement_names_worst_violation(self):
        class TwoRows:
            """Row 0 is 1e8 a^3 / 3, whose differences miss its gradient by
            about 4, within its tolerance of 9e4; row 1 is b but claims
            d/db = 1.5, the smaller but only violation."""

            def evaluate(self, q):
                q = np.asarray(q)
                a, b = q[..., 0], q[..., 1]
                gradient = np.zeros(q.shape[:-1] + (2, 2))
                gradient[..., 0, 0] = 1e8 * a**2
                gradient[..., 1, 1] = 1.5
                return np.stack([1e8 * a**3 / 3.0, b], axis=-1), gradient

        iv = InputVector(("a", "b"), np.array([30.0, 2.0]), np.array([0.1, 0.1]))
        with pytest.raises(NumericalInstabilityError,
                           match=r"disagree in row 1 at b: 1\.5 vs 0\.99999\d*$"):
            jacobian(TwoRows(), iv)

    @given(
        seed=st.integers(0, 2**32 - 1),
        xi=st.floats(0.5, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimator_gradients_random_points(self, seed, xi):
        rng = np.random.default_rng(seed)
        # keep successive count ratios away from 1: the estimators are
        # singular where adjacent probabilities coincide, and central
        # differences lose accuracy near that surface for conditioning
        # reasons rather than correctness ones
        on = rng.uniform(1e5, 1e6) * np.cumprod(
            np.concatenate([[1.0], rng.uniform(0.05, 0.9, 2)])
        )
        off = rng.uniform(1e5, 1e6) * np.cumprod(
            np.concatenate([[1.0], rng.uniform(0.05, 0.9, 2)])
        )
        iv = counting_inputs(
            CountVector(on, np.sqrt(on)),
            CountVector(off, np.sqrt(off)),
            HeraldPurity(xi, 1e-4),
        )
        for f in (GammaEstimator(0), GammaEstimator(1), GammaEstimator(2),
                  KlyshkoEstimator()):
            jacobian(f, iv)  # raises on analytic/FD disagreement

    def test_scaling_direction_is_null(self):
        # the estimators depend on count ratios only, so the gradient must be
        # orthogonal to a common rescaling of all ON (or OFF) counts
        iv = table_inputs()
        for f in (GammaEstimator(0), GammaEstimator(1), KlyshkoEstimator()):
            g = f.evaluate(iv.values)[1]
            scale_on = np.concatenate([iv.values[:3], np.zeros(4)])
            scale_off = np.concatenate([np.zeros(3), iv.values[3:6], [0.0]])
            norm = np.abs(g).max() * iv.values.max()
            assert abs(g @ scale_on) < 1e-10 * norm
            assert abs(g @ scale_off) < 1e-10 * norm


class TestPropagate:
    def test_zero_gradient(self):
        iv = table_inputs()
        b = propagate(np.zeros(iv.size), iv, target="null")
        assert b.combined == 0.0
        assert np.all(b.contributions == 0.0)

    def test_quadrature_identity(self):
        iv = table_inputs()
        b = budget_for(GammaEstimator(0), iv)
        assert abs(b.combined**2 - np.sum(b.contributions**2)) \
            <= 1e-12 * b.combined**2

    def test_dimension_mismatch(self):
        iv = table_inputs()
        with pytest.raises(DomainError):
            propagate(np.zeros(iv.size + 1), iv)

    @pytest.mark.parametrize("correlated", [False, True])
    def test_matrix_gives_each_row_its_single_row_budget(self, correlated):
        cov = None
        if correlated:
            cov = np.diag(np.array(U_ON + U_OFF + (U_XI,)) ** 2)
            cov[0, 3] = cov[3, 0] = 0.9 * U_ON[0] * U_OFF[0]
            cov[1, 2] = cov[2, 1] = -0.4 * U_ON[1] * U_ON[2]
        iv = table_inputs(cov)
        names = ["gamma0", "gamma1", "gamma2", "gammaK"]
        g = jacobian(CountingEstimators(), iv)
        budgets = propagate(g, iv, names)
        assert [b.target for b in budgets] == names
        for row, name, b in zip(g, names, budgets):
            single = propagate(row, iv, target=name)
            assert np.all(np.abs(b.contributions - single.contributions)
                          <= np.spacing(np.abs(single.contributions)))
            assert abs(b.combined - single.combined) <= np.spacing(single.combined)
        with pytest.raises(DomainError, match="targets"):
            propagate(g, iv, names[:-1])

    def test_anticorrelation_shrinks_combined(self):
        names = ("a", "b")
        v = np.array([1.0, 1.0])
        u = np.array([0.1, 0.1])
        rho = -0.9
        cov = np.array([[0.01, rho * 0.01], [rho * 0.01, 0.01]])
        f = LinearFunctional([1.0, 1.0])
        diag = budget_for(f, InputVector(names, v, u))
        corr = budget_for(f, InputVector(names, v, u, cov))
        assert corr.combined < 0.4 * diag.combined
        expected = math.sqrt(0.01 + 0.01 + 2 * rho * 0.01)
        assert abs(corr.combined - expected) < 1e-12

    def test_zero_input_uncertainty_gives_zero_budget(self):
        iv = table_inputs()
        exact = InputVector(iv.names, iv.values, np.zeros(iv.size))
        b = budget_for(GammaEstimator(1), exact)
        assert b.combined == 0.0


class TestTableBudgets:
    def test_gamma0_contributions_match_published(self):
        b = budget_for(GammaEstimator(0), table_inputs())
        got = {k: 100.0 * v for k, v in b.as_dict().items()}
        for name, (published, unit) in PUBLISHED_GAMMA0_BUDGET.items():
            assert abs(got[name] - published) <= unit, (name, got[name], published)

    def test_combined_uncertainties(self):
        iv = table_inputs()
        expected = {  # frozen from the analytic propagation, in percent
            "gamma0": 5.6730e-3,
            "gamma1": 5.6735e-3,
            "gamma2": 4.3552e-2,
            "klyshko": 5.6677e-3,
        }
        for f, key in ((GammaEstimator(0), "gamma0"),
                       (GammaEstimator(1), "gamma1"),
                       (GammaEstimator(2), "gamma2"),
                       (KlyshkoEstimator(), "klyshko")):
            b = budget_for(f, iv)
            assert abs(100.0 * b.combined - expected[key]) < 1e-6
            # all consistent with the published 0.003-0.007 scale except the
            # sparse i=2 bin
            if key != "gamma2":
                assert 3e-3 <= 100.0 * b.combined <= 7e-3
