"""Tests for the modified S-OMP hyper-parameter initializer."""

import numpy as np
import pytest

from repro.core import somp_init
from repro.core.kronecker import KRON_MIN_STATES
from repro.core.somp_init import InitConfig, somp_initialize


def problem(seed=0, n_states=5, n_basis=50, n=16, r0=0.9, noise=0.05):
    rng = np.random.default_rng(seed)
    support = np.array([4, 18, 33])
    correlation = r0 ** np.abs(
        np.subtract.outer(np.arange(n_states), np.arange(n_states))
    )
    chol = np.linalg.cholesky(correlation)
    coef = np.zeros((n_states, n_basis))
    for m in support:
        coef[:, m] = chol @ rng.standard_normal(n_states) * 2.0
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = [
        d @ coef[k] + noise * rng.standard_normal(n)
        for k, d in enumerate(designs)
    ]
    return designs, targets, support


class TestInitConfig:
    def test_defaults_valid(self):
        InitConfig()

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            InitConfig(r0_grid=())

    def test_rejects_bad_r0(self):
        with pytest.raises(ValueError):
            InitConfig(r0_grid=(1.0,))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            InitConfig(sigma0_grid=(0.0,))

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            InitConfig(n_basis_grid=(0,))

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError):
            InitConfig(n_folds=1)


class TestInitializer:
    def test_finds_true_support(self):
        designs, targets, support = problem()
        config = InitConfig(n_basis_grid=(3, 6, 12))
        result = somp_initialize(designs, targets, config, seed=0)
        assert set(support).issubset(set(result.support))

    def test_chosen_values_come_from_grid(self):
        designs, targets, _ = problem(1)
        config = InitConfig(
            r0_grid=(0.2, 0.8), sigma0_grid=(0.1, 0.3), n_basis_grid=(3, 8)
        )
        result = somp_initialize(designs, targets, config, seed=0)
        assert result.r0 in config.r0_grid
        assert result.sigma0 in config.sigma0_grid
        assert result.n_basis in config.n_basis_grid

    def test_prior_encodes_support(self):
        designs, targets, _ = problem(2)
        result = somp_initialize(designs, targets, seed=1)
        lam = result.prior.lambdas
        for m in result.support:
            assert lam[m] == 1.0
        inactive = np.setdiff1d(np.arange(lam.size), result.support)
        assert np.allclose(lam[inactive], 1e-5)

    def test_noise_var_is_sigma_squared(self):
        designs, targets, _ = problem(3)
        result = somp_initialize(designs, targets, seed=2)
        assert result.noise_var == pytest.approx(result.sigma0**2)

    def test_cv_errors_recorded(self):
        designs, targets, _ = problem(4)
        config = InitConfig(
            r0_grid=(0.5,), sigma0_grid=(0.1,), n_basis_grid=(3, 6)
        )
        result = somp_initialize(designs, targets, config, seed=3)
        assert len(result.cv_errors) == 2
        for error in result.cv_errors.values():
            assert error > 0.0

    def test_correlated_truth_prefers_high_r0(self):
        """With strongly correlated coefficients and few samples, CV should
        not pick the uncorrelated end of the grid."""
        designs, targets, _ = problem(
            5, n_states=8, n=6, r0=0.98, noise=0.2
        )
        config = InitConfig(
            r0_grid=(0.0, 0.95), sigma0_grid=(0.1,), n_basis_grid=(3,),
            n_folds=3,
        )
        result = somp_initialize(designs, targets, config, seed=5)
        key_low = (0.0, 0.1, 3)
        key_high = (0.95, 0.1, 3)
        assert result.cv_errors[key_high] <= result.cv_errors[key_low]

    def test_deterministic_given_seed(self):
        designs, targets, _ = problem(6)
        a = somp_initialize(designs, targets, seed=7)
        b = somp_initialize(designs, targets, seed=7)
        assert a.support == b.support
        assert a.r0 == b.r0 and a.sigma0 == b.sigma0

    def test_theta_capped_by_dictionary_size(self):
        designs, targets, _ = problem(7, n=6)
        config = InitConfig(n_basis_grid=(2, 4, 1000), n_folds=3)
        result = somp_initialize(designs, targets, config, seed=8)
        assert len(result.support) <= designs[0].shape[1]

    def test_support_may_exceed_sample_count(self):
        """The Bayesian solve is well-posed for θ > N (unlike LS)."""
        designs, targets, _ = problem(8, n=5)
        config = InitConfig(
            r0_grid=(0.5,), sigma0_grid=(0.1,), n_basis_grid=(9,),
            n_folds=3,
        )
        result = somp_initialize(designs, targets, config, seed=9)
        assert len(result.support) == 9


class TestParallelCV:
    """The CV grid must be bit-identical for any worker count."""

    def test_workers_bit_identical(self):
        designs, targets, _ = problem(3, n_states=4, n=12)
        config = InitConfig(
            r0_grid=(0.3, 0.9),
            sigma0_grid=(0.1, 0.3),
            n_basis_grid=(3, 6),
            n_folds=2,
        )
        serial = somp_initialize(
            designs, targets, config, seed=17, max_workers=1
        )
        pooled = somp_initialize(
            designs, targets, config, seed=17, max_workers=4
        )
        assert serial.support == pooled.support
        assert serial.r0 == pooled.r0
        assert serial.sigma0 == pooled.sigma0
        assert serial.n_basis == pooled.n_basis
        assert serial.noise_var == pooled.noise_var
        assert serial.cv_errors.keys() == pooled.cv_errors.keys()
        for key in serial.cv_errors:
            assert serial.cv_errors[key] == pooled.cv_errors[key]
        np.testing.assert_array_equal(
            serial.prior.lambdas, pooled.prior.lambdas
        )
        np.testing.assert_array_equal(
            serial.prior.correlation, pooled.prior.correlation
        )


class TestSolverChoice:
    def test_balance_checked_once_per_fold(self, monkeypatch):
        """State balance is decided per split, not per (fold, r0, σ0) cell."""
        rng = np.random.default_rng(5)
        shared = rng.standard_normal((8, 12))
        designs = [shared] * KRON_MIN_STATES
        targets = [
            shared[:, 2] * (1.0 + 0.1 * k) + 0.05 * rng.standard_normal(8)
            for k in range(KRON_MIN_STATES)
        ]
        config = InitConfig(
            r0_grid=(0.5, 0.9),
            sigma0_grid=(0.1, 0.3),
            n_basis_grid=(2, 4),
            n_folds=2,
        )
        expected = somp_initialize(designs, targets, config, seed=1)

        checks = []
        original = somp_init._balanced_designs

        def counting(split):
            checks.append(len(split))
            return original(split)

        monkeypatch.setattr(somp_init, "_balanced_designs", counting)
        solvers = []
        original_make = somp_init._make_solver

        def recording(r0, sigma0, kron):
            solver = original_make(r0, sigma0, kron)
            solvers.append(type(solver).__name__)
            return solver

        monkeypatch.setattr(somp_init, "_make_solver", recording)
        result = somp_initialize(designs, targets, config, seed=1)
        # Once on the full data, once per fold; never per CV cell.
        assert len(checks) == 1 + config.n_folds
        # Balanced folds keep the Kronecker solver for every scan.
        assert set(solvers) == {"KroneckerBayesSolver"}
        assert len(solvers) == config.n_folds * 4 + 1
        assert result.support == expected.support
        assert (result.r0, result.sigma0, result.n_basis) == (
            expected.r0, expected.sigma0, expected.n_basis
        )
