"""MAP posterior of the C-BMF model (paper Section 3.2).

The posterior of the stacked coefficient vector α (eq. 19) is Gaussian with

    Σ_p = A − A Dᵀ (σ0² I + D A Dᵀ)⁻¹ D A                  (eq. 20, via
                                                            push-through)
    μ_p = σ0⁻² Σ_p Dᵀ y = A Dᵀ C⁻¹ y,   C = σ0² I + D A Dᵀ

``D`` is the ``NK × MK`` permuted block-diagonal design (eq. 18) and ``A``
the block prior (eq. 11). Forming either is hopeless at the paper's scale
(M·K ≈ 40 000), but both products collapse:

* ``D A Dᵀ = (Φ Λ Φᵀ) ∘ R[s, s]`` — an ``n × n`` Hadamard product, where
  ``Φ`` stacks the per-state designs row-wise, ``Λ = diag(λ)``, and ``s``
  maps each row to its state;
* the per-basis posterior mean is ``μ_p^m = λ_m · R · (D_mᵀ C⁻¹ y)`` and the
  per-basis covariance block ``Σ_p^m = λ_m R − λ_m² R S_m R`` with
  ``S_m[a,b] = Σ_{i∈a, j∈b} Φ[i,m]·C⁻¹[i,j]·Φ[j,m]``.

Those blocks are exactly what the EM updates (eq. 29-31) consume, so the
whole algorithm runs in ``O(n²·M + n³)`` per iteration instead of
``O((MK)³)``. ``compute_posterior_dense`` keeps the literal textbook
formulas as a cross-check oracle for tests.

For *state-balanced* data (every state fitted on the same design matrix,
e.g. a swept-frequency dataset) a second fast path exists: the Kronecker
solver of :mod:`repro.core.kronecker`, which decouples the posterior into
K independent M-dimensional solves along the eigenvectors of R and scales
near-linearly in K. :func:`compute_posterior` auto-selects between the
two (``method="auto"``); both are validated against the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import linalg as sla

from repro.core.base import validate_multistate
from repro.core.kronecker import (
    KroneckerFactors,
    compute_posterior_kron,
    kron_applicable,
    resolve_solver_mode,
)
from repro.core.multistate import MultiStateData
from repro.core.prior import CorrelatedPrior
from repro.errors import NumericalError
from repro.utils.blas import single_blas_thread
from repro.utils.linalg import cholesky_factor, inv_from_cholesky, inv_psd

__all__ = ["PosteriorResult", "compute_posterior", "compute_posterior_dense"]


@dataclass
class PosteriorResult:
    """Posterior summary consumed by MAP prediction and the EM updates.

    Attributes
    ----------
    mean:
        Posterior mean, shape (M, K): ``mean[m, k]`` is the MAP coefficient
        of basis m in state k (the paper's α_{k,m}, eq. 22).
    sigma_blocks:
        Per-basis K×K posterior covariance blocks Σ_p^m, shape (M, K, K);
        ``None`` when not requested — and *also* ``None`` on the
        Kronecker path, which keeps the blocks factored in :attr:`kron`
        instead of materializing O(M·K²) memory. Consumers that need
        block statistics go through :meth:`mstep_lambda_stats` /
        :meth:`mstep_scaled_moment` / :meth:`covariance_blocks`, which
        work for either representation.
    residual_sq:
        ``‖y − D μ_p‖²`` summed over all states.
    trace_dsd:
        ``Tr(D Σ_p Dᵀ)`` — the posterior-uncertainty term of the σ0
        update. ``None`` when the solve skipped the inverse branch
        (``want_blocks=False``); consumers must go through
        :meth:`require_trace_dsd` so a skipped computation fails loudly
        instead of leaking into noise estimates.
    nll:
        Negative log marginal likelihood (eq. 25, up to the constant
        ``n·log 2π``).
    noise_var:
        The σ0² used for this solve.
    kron:
        :class:`repro.core.kronecker.KroneckerFactors` when this result
        came from the Kronecker solver (factored covariance), else None.
    """

    mean: np.ndarray
    sigma_blocks: Optional[np.ndarray]
    residual_sq: float
    trace_dsd: Optional[float]
    nll: float
    noise_var: float
    kron: Optional[KroneckerFactors] = None

    @property
    def coef(self) -> np.ndarray:
        """Coefficients in estimator layout, shape (K, M)."""
        return self.mean.T

    @property
    def solver(self) -> str:
        """Which fast path produced this result: ``"kron"`` or ``"dual"``."""
        return "kron" if self.kron is not None else "dual"

    # ------------------------------------------------------------------
    # representation-agnostic covariance consumers
    # ------------------------------------------------------------------
    def covariance_blocks(self) -> np.ndarray:
        """Dense (M, K, K) blocks, materializing Kronecker factors on demand.

        O(M·K²) memory on the Kronecker path — for tests and inspection;
        the fit path consumes the factored statistics below instead.
        """
        if self.sigma_blocks is not None:
            return self.sigma_blocks
        if self.kron is not None:
            return self.kron.materialize_blocks()
        raise NumericalError(
            "posterior covariance was not computed (solved with "
            "want_blocks=False); re-solve with want_blocks=True"
        )

    def mstep_lambda_stats(
        self, correlation: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-basis ``(μ^mᵀR⁻¹μ^m, Tr(R⁻¹Σ^m))`` for the λ update (eq. 29).

        ``correlation`` must be the R this posterior was solved at. The
        dense representation evaluates the literal einsums; the Kronecker
        representation reads both off its ω-grid without forming R⁻¹.
        """
        if self.kron is not None:
            return self.kron.mstep_lambda_stats(correlation)
        if self.sigma_blocks is None:
            raise NumericalError(
                "posterior covariance was not computed (solved with "
                "want_blocks=False); re-solve with want_blocks=True"
            )
        r_inv = inv_psd(correlation)
        quad = np.einsum("mk,kl,ml->m", self.mean, r_inv, self.mean)
        traces = np.einsum("kl,mlk->m", r_inv, self.sigma_blocks)
        return quad, traces

    def mstep_scaled_moment(self, scale: np.ndarray) -> np.ndarray:
        """``Σ_m (Σ^m + μ^m·μ^mᵀ)/scale_m`` — the R-update numerator (eq. 30)."""
        if self.kron is not None:
            return self.kron.mstep_scaled_moment(scale)
        if self.sigma_blocks is None:
            raise NumericalError(
                "posterior covariance was not computed (solved with "
                "want_blocks=False); re-solve with want_blocks=True"
            )
        second_moment = self.sigma_blocks + np.einsum(
            "mk,ml->mkl", self.mean, self.mean
        )
        contributions = second_moment / np.asarray(scale, dtype=float)[
            :, None, None
        ]
        return contributions.sum(axis=0)

    def require_trace_dsd(self) -> float:
        """``Tr(D Σ_p Dᵀ)``, or :class:`NumericalError` if unavailable.

        Guards the σ0 update: a solve that skipped the inverse branch
        (``want_blocks=False``) has no uncertainty trace, and a
        non-finite one means the inverse itself broke down — both must
        fail here rather than flow silently into noise estimates.
        """
        if self.trace_dsd is None:
            raise NumericalError(
                "trace_dsd was not computed (posterior solved with "
                "want_blocks=False); re-solve with want_blocks=True"
            )
        if not np.isfinite(self.trace_dsd):
            raise NumericalError(
                f"trace_dsd is non-finite ({self.trace_dsd}); the "
                "posterior covariance computation broke down"
            )
        return float(self.trace_dsd)


def _stack(designs: Sequence[np.ndarray], targets: Sequence[np.ndarray]):
    """Stack per-state data row-wise; return (Φ, y, state-of-row)."""
    phi = np.vstack(designs)
    y = np.concatenate(targets)
    state_of_row = np.concatenate(
        [np.full(d.shape[0], k, dtype=int) for k, d in enumerate(designs)]
    )
    return phi, y, state_of_row


@single_blas_thread()
def compute_posterior(
    designs: Union[MultiStateData, Sequence[np.ndarray]],
    targets: Optional[Sequence[np.ndarray]] = None,
    prior: CorrelatedPrior = None,
    noise_var: float = None,
    *,
    want_blocks: bool = True,
    method: str = "auto",
) -> PosteriorResult:
    """Posterior mean/blocks/marginal-likelihood through a fast path.

    Parameters
    ----------
    designs, targets:
        Per-state design matrices ``B_k`` (N_k × M) and targets ``y_k`` —
        or a prebuilt :class:`MultiStateData` as the first argument (then
        ``targets`` must be omitted), which skips re-stacking and index
        construction entirely. Hot loops (EM, CV) use the cached form.
    prior:
        The correlated prior ``{λ, R}``; ``prior.n_basis`` must match the
        design width and ``prior.n_states`` the state count.
    noise_var:
        Observation noise variance σ0² (> 0).
    want_blocks:
        Skip the covariance pass when only the MAP mean and the marginal
        likelihood are needed (e.g. pure prediction) — it dominates
        runtime for large M on the dual path.
    method:
        ``"auto"`` (default) — dual-space solve, except state-balanced
        data with ≥ :data:`repro.core.kronecker.KRON_MIN_STATES` states
        and a favourable flop estimate takes the Kronecker path (the
        ``REPRO_POSTERIOR_SOLVER`` environment variable overrides the
        policy); ``"dual"``/``"kron"`` force one path explicitly —
        ``"kron"`` raises :class:`ValueError` on unbalanced data.
    """
    if isinstance(designs, MultiStateData):
        if targets is not None:
            raise TypeError(
                "targets must be None when passing MultiStateData"
            )
        data = designs
    else:
        data = MultiStateData.from_states(designs, targets)
    if noise_var is None or noise_var <= 0.0:
        raise ValueError(f"noise_var must be > 0, got {noise_var}")
    n_states = data.n_states
    n_basis = data.n_basis
    if prior.n_basis != n_basis:
        raise ValueError(
            f"prior has {prior.n_basis} bases, designs have {n_basis}"
        )
    if prior.n_states != n_states:
        raise ValueError(
            f"prior has {prior.n_states} states, got {n_states} designs"
        )

    if method not in ("auto", "dual", "kron"):
        raise ValueError(
            f"method must be 'auto', 'dual' or 'kron', got {method!r}"
        )
    if method == "kron":
        return compute_posterior_kron(
            data, prior, noise_var, want_blocks=want_blocks
        )
    if method == "auto":
        mode = resolve_solver_mode()
        if (mode == "kron" and data.state_balanced) or (
            mode == "auto" and kron_applicable(data)
        ):
            return compute_posterior_kron(
                data, prior, noise_var, want_blocks=want_blocks
            )

    lambdas = prior.lambdas
    correlation = prior.correlation
    phi, y = data.phi, data.y
    n_rows = data.n_rows

    # C = σ0²·I + (Φ Λ Φᵀ) ∘ R[s, s]
    gram = (phi * lambdas) @ phi.T
    dad = gram * data.expand_correlation(correlation)
    c_matrix = dad.copy()
    c_matrix.flat[:: n_rows + 1] += noise_var
    factor = cholesky_factor(c_matrix)

    v = sla.cho_solve((factor, True), y, check_finite=False)

    # W[m, k] = Σ_{rows i of state k} Φ[i, m]·v[i]  →  μ^m = λ_m·R·W[m, :]
    w_matrix = data.segment_sum(phi * v[:, None]).T
    mean = lambdas[:, None] * (w_matrix @ correlation)

    # Residual and marginal likelihood.
    residual = y - data.predict_rows(mean)
    residual_sq = float(residual @ residual)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    nll = float(y @ v) + log_det

    sigma_blocks = None
    trace_dsd: Optional[float] = None
    if want_blocks:
        c_inv = inv_from_cholesky(factor)
        # DADᵀ = C − σ0²·I collapses the uncertainty trace to
        # Tr(D Σ_p Dᵀ) = σ0²·(n − σ0²·Tr(C⁻¹)) — no extra solve needed.
        trace_dsd = noise_var * (
            n_rows - noise_var * float(np.trace(c_inv))
        )
        # S[m, a, b] = Φ_aᵀ[:, m] · C⁻¹[a-block, b-block] · Φ_b[:, m]:
        # one (n × n_b)(n_b × M) product per state b, then a segment-sum
        # over the a-axis — O(n²M) total with a K-length Python loop.
        # The (n, M) scratch buffer is reused across states.
        s_tensor = np.empty((n_basis, n_states, n_states))
        cross = np.empty_like(phi)
        for b, rows_b in enumerate(data.state_slices):
            np.matmul(c_inv[:, rows_b], phi[rows_b], out=cross)
            np.multiply(phi, cross, out=cross)
            s_tensor[:, :, b] = data.segment_sum(cross).T
        s_tensor = 0.5 * (s_tensor + np.swapaxes(s_tensor, 1, 2))
        # Σ^m = λ_m·R − λ_m²·R·S_m·R
        rsr = correlation @ s_tensor @ correlation
        sigma_blocks = (
            lambdas[:, None, None] * correlation[None, :, :]
            - (lambdas**2)[:, None, None] * rsr
        )

    return PosteriorResult(
        mean=mean,
        sigma_blocks=sigma_blocks,
        residual_sq=residual_sq,
        trace_dsd=trace_dsd,
        nll=nll,
        noise_var=noise_var,
    )


def compute_posterior_dense(
    designs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    prior: CorrelatedPrior,
    noise_var: float,
) -> PosteriorResult:
    """Literal-textbook posterior (eq. 18-22) — the O((MK)³) test oracle.

    Materializes the permuted block-diagonal ``D``, the full MK × MK
    prior covariance ``A`` and the complete posterior covariance; only
    usable for small M·K. This function is the ground truth that *both*
    production fast paths are validated against on random shapes
    (including pruned-column designs): the dual-space/Woodbury solve of
    :func:`compute_posterior` and the Kronecker solve of
    :func:`repro.core.kronecker.compute_posterior_kron` — see
    ``tests/core/test_posterior_parity.py`` and
    ``tests/core/test_kronecker.py``. Keep it deliberately naive: any
    optimization here would erode its oracle status.
    """
    designs, targets = validate_multistate(designs, targets)
    n_states = len(designs)
    n_basis = designs[0].shape[1]
    phi, y, state_of_row = _stack(designs, targets)
    n_rows = phi.shape[0]

    # Column (m·K + k) of D carries basis m for rows of state k (eq. 18
    # after the permutation described below it).
    d_matrix = np.zeros((n_rows, n_basis * n_states))
    for i in range(n_rows):
        k = state_of_row[i]
        for m in range(n_basis):
            d_matrix[i, m * n_states + k] = phi[i, m]

    a_matrix = prior.full_covariance()
    c_matrix = noise_var * np.eye(n_rows) + d_matrix @ a_matrix @ d_matrix.T
    c_inv = np.linalg.inv(c_matrix)
    ad_t = a_matrix @ d_matrix.T
    sigma = a_matrix - ad_t @ c_inv @ ad_t.T
    # μ_p = A Dᵀ C⁻¹ y, the right-hand form of the same identity. The
    # left-hand σ0⁻² Σ_p Dᵀ y divides the cancellation error of the
    # subtraction above by σ0², which at σ0² = 1e-3 already costs ~1e-7
    # relative accuracy — more than the fast paths it must referee.
    mu = ad_t @ (c_inv @ y)

    mean = mu.reshape(n_basis, n_states)
    blocks = np.empty((n_basis, n_states, n_states))
    for m in range(n_basis):
        block = slice(m * n_states, (m + 1) * n_states)
        blocks[m] = sigma[block, block]

    residual = y - d_matrix @ mu
    trace_dsd = float(np.trace(d_matrix @ sigma @ d_matrix.T))
    sign, log_det = np.linalg.slogdet(c_matrix)
    if sign <= 0:
        raise np.linalg.LinAlgError("C matrix is not positive definite")
    nll = float(y @ c_inv @ y) + float(log_det)

    return PosteriorResult(
        mean=mean,
        sigma_blocks=blocks,
        residual_sq=float(residual @ residual),
        trace_dsd=trace_dsd,
        nll=nll,
        noise_var=noise_var,
    )
