"""Tests for the shared greedy selection scan."""

import numpy as np
import pytest

from repro.core.base import validate_multistate
from repro.core.greedy import select_shared_support
from repro.core.kronecker import KRON_MIN_STATES
from repro.core.multistate import MultiStateData
from repro.core.somp_init import IncrementalBayesSolver, KroneckerBayesSolver


def least_squares_solver(sub_designs, targets):
    columns = []
    for design, target in zip(sub_designs, targets):
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        columns.append(solution)
    return np.column_stack(columns)


def shared_sparse_problem(seed=0, n_states=4, n_basis=30, n=20):
    rng = np.random.default_rng(seed)
    support = [3, 11, 17]
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = []
    for k, design in enumerate(designs):
        coef = np.zeros(n_basis)
        for m in support:
            coef[m] = rng.uniform(1.0, 3.0) * (1 if k % 2 else -1)
        targets.append(design @ coef + 0.01 * rng.standard_normal(n))
    return designs, targets, support


class TestSelection:
    def test_recovers_shared_support(self):
        designs, targets, support = shared_sparse_problem()
        found, _ = select_shared_support(
            designs, targets, 3, least_squares_solver
        )
        assert sorted(found) == sorted(support)

    def test_no_duplicate_selection(self):
        designs, targets, _ = shared_sparse_problem(1)
        found, _ = select_shared_support(
            designs, targets, 10, least_squares_solver
        )
        assert len(found) == len(set(found)) == 10

    def test_coefficients_shape(self):
        designs, targets, _ = shared_sparse_problem(2)
        _, coefficients = select_shared_support(
            designs, targets, 5, least_squares_solver
        )
        assert coefficients.shape == (5, len(designs))

    def test_on_step_called_every_iteration(self):
        designs, targets, _ = shared_sparse_problem(3)
        sizes = []
        select_shared_support(
            designs,
            targets,
            4,
            least_squares_solver,
            on_step=lambda support, coef: sizes.append(len(support)),
        )
        assert sizes == [1, 2, 3, 4]

    def test_residual_decreases(self):
        designs, targets, _ = shared_sparse_problem(4)
        norms = []

        def track(support, coefficients):
            total = 0.0
            for k, design in enumerate(designs):
                r = targets[k] - design[:, support] @ coefficients[:, k]
                total += float(r @ r)
            norms.append(total)

        select_shared_support(
            designs, targets, 6, least_squares_solver, on_step=track
        )
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_rejects_bad_n_select(self):
        designs, targets, _ = shared_sparse_problem(5)
        with pytest.raises(ValueError):
            select_shared_support(designs, targets, 0, least_squares_solver)
        with pytest.raises(ValueError):
            select_shared_support(
                designs, targets, 999, least_squares_solver
            )

    def test_solver_shape_validated(self):
        designs, targets, _ = shared_sparse_problem(6)
        with pytest.raises(AssertionError, match="solver"):
            select_shared_support(
                designs, targets, 2, lambda d, t: np.zeros((1, 1))
            )


# ----------------------------------------------------------------------
# Differential test: the columnar scan against the per-state loop.


def per_state_scan(
    designs, targets, n_select, solver, on_step=None, aggregate="l1"
):
    """The scan as a loop over states: K GEMVs for the scores, K
    column-slice copies and K residual updates per greedy step."""
    designs, targets = validate_multistate(designs, targets)
    n_basis = designs[0].shape[1]
    incremental = hasattr(solver, "begin") and hasattr(solver, "extend")
    if incremental:
        solver.begin(designs, targets)
    support = []
    residuals = [target.copy() for target in targets]
    coefficients = np.zeros((0, len(designs)))
    for _ in range(n_select):
        score = np.zeros(n_basis)
        for design, residual in zip(designs, residuals):
            xi = design.T @ residual
            score += np.abs(xi) if aggregate == "l1" else xi * xi
        score[support] = -np.inf
        chosen = int(np.argmax(score))
        support.append(chosen)
        sub_designs = [design[:, support] for design in designs]
        if incremental:
            coefficients = solver.extend(chosen)
        else:
            coefficients = solver(sub_designs, targets)
        residuals = [
            target - sub @ coefficients[:, k]
            for k, (sub, target) in enumerate(zip(sub_designs, targets))
        ]
        if on_step is not None:
            on_step(list(support), coefficients)
    return support, coefficients


#: name → (state count, rows per state, basis count, shared design,
#: duplicated rows, steps). The plain LS solver interpolates once the
#: support reaches the row count, after which every score is round-off;
#: each case stops short of that.
CASES = {
    "balanced-many-states": (KRON_MIN_STATES, [10], 30, True, False, 7),
    "unbalanced-rows": (5, [9, 14, 11, 20, 12], 25, False, False, 7),
    "single-state": (1, [15], 20, True, False, 9),
    "fewer-rows-than-bases": (4, [8, 8, 8, 8], 60, False, False, 6),
    "duplicate-rows": (3, [10, 13, 9], 18, False, True, 7),
    "balanced-duplicate-rows": (KRON_MIN_STATES, [9], 16, True, True, 6),
}


def generated_problem(seed, case):
    n_states, rows, n_basis, shared, duplicate, steps = CASES[case]
    rng = np.random.default_rng(seed)
    rows = rows * n_states if len(rows) == 1 else rows

    def draw(n):
        design = rng.standard_normal((n, n_basis))
        if duplicate:
            design = np.vstack([design, design[:3]])
        return design

    if shared:
        designs = [draw(rows[0])] * n_states
    else:
        designs = [draw(n) for n in rows]
    active = rng.choice(n_basis, size=4, replace=False)
    targets = []
    for design in designs:
        weights = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1, 1], 4)
        noise = 0.05 * rng.standard_normal(design.shape[0])
        targets.append(design[:, active] @ weights + noise)
    return designs, targets, steps


def make_solver(name):
    if name == "ls":
        return least_squares_solver
    if name == "incremental":
        return IncrementalBayesSolver(r0=0.7, sigma0=0.3)
    return KroneckerBayesSolver(r0=0.7, sigma0=0.3)


def scan_combinations():
    for case, spec in CASES.items():
        solvers = ["ls", "incremental"]
        if spec[3]:  # the Kronecker solver needs one shared design
            solvers.append("kron")
        for solver in solvers:
            for aggregate in ("l1", "l2"):
                yield case, solver, aggregate


class TestColumnarScanMatchesPerStateLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "case, solver_name, aggregate", list(scan_combinations())
    )
    def test_same_supports_steps_and_coefficients(
        self, seed, case, solver_name, aggregate
    ):
        designs, targets, steps = generated_problem(seed, case)
        reference_steps, columnar_steps = [], []
        reference = per_state_scan(
            designs, targets, steps, make_solver(solver_name),
            on_step=lambda s, c: reference_steps.append((s, c.copy())),
            aggregate=aggregate,
        )
        columnar = select_shared_support(
            designs, targets, steps, make_solver(solver_name),
            on_step=lambda s, c: columnar_steps.append((s, c.copy())),
            aggregate=aggregate,
        )
        assert columnar[0] == reference[0]
        np.testing.assert_allclose(
            columnar[1], reference[1], rtol=1e-12, atol=0.0
        )
        assert len(columnar_steps) == len(reference_steps) == steps
        for (support, coef), (ref_support, ref_coef) in zip(
            columnar_steps, reference_steps
        ):
            assert support == ref_support
            np.testing.assert_allclose(coef, ref_coef, rtol=1e-12, atol=0.0)

    def test_prebuilt_data_matches_lists(self):
        designs, targets, steps = generated_problem(3, "unbalanced-rows")
        data = MultiStateData.from_states(designs, targets)
        from_data = select_shared_support(
            data, None, steps, make_solver("incremental")
        )
        from_lists = select_shared_support(
            designs, targets, steps, make_solver("incremental")
        )
        assert from_data[0] == from_lists[0]
        np.testing.assert_array_equal(from_data[1], from_lists[1])

    def test_prebuilt_data_refuses_targets(self):
        designs, targets, _ = generated_problem(4, "single-state")
        data = MultiStateData.from_states(designs, targets)
        with pytest.raises(TypeError, match="targets"):
            select_shared_support(data, targets, 2, least_squares_solver)


class TestColumnarPredictRows:
    @pytest.mark.parametrize(
        "case", ["balanced-many-states", "unbalanced-rows", "single-state"]
    )
    @pytest.mark.parametrize("restricted", [False, True])
    def test_matches_per_state_products(self, case, restricted):
        designs, targets, _ = generated_problem(5, case)
        data = MultiStateData.from_states(designs, targets)
        rng = np.random.default_rng(6)
        columns = (
            rng.choice(data.n_basis, size=5, replace=False)
            if restricted else np.arange(data.n_basis)
        )
        mean = rng.standard_normal((columns.size, data.n_states))
        expected = np.concatenate([
            design[:, columns] @ mean[:, k]
            for k, design in enumerate(designs)
        ])
        got = data.predict_rows(mean, columns if restricted else None)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    def test_empty_state_rows(self):
        designs, targets, _ = generated_problem(7, "unbalanced-rows")
        data = MultiStateData.from_states(designs, targets)
        rows = [np.arange(2), np.arange(0), np.array([3, 1])] + [
            np.arange(1)
        ] * (data.n_states - 3)
        subset = data.take_rows(rows)
        mean = np.random.default_rng(8).standard_normal(
            (data.n_basis, data.n_states)
        )
        expected = np.concatenate([
            designs[k][r] @ mean[:, k] for k, r in enumerate(rows)
        ])
        np.testing.assert_allclose(
            subset.predict_rows(mean), expected, rtol=1e-12, atol=1e-13
        )
