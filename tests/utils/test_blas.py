"""Tests for the one-thread BLAS cap on the fit path.

The tests that drive the real OpenBLAS builds first set every build to
two threads, so the cap visibly moves the count from 2 to 1 even where
the default is already one thread. CI also runs this file with
``OPENBLAS_NUM_THREADS=2``.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import cbmf
from repro.core.cbmf import CBMF
from repro.core.somp_init import InitConfig, somp_initialize
from repro.utils import blas
from repro.utils.blas import (
    blas_builds,
    blas_thread_counts,
    single_blas_thread,
)


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS build at two threads; prior counts restored."""
    builds = blas_builds()
    if not builds:
        pytest.skip("no OpenBLAS build is loaded in this process")
    before = [build.get_threads() for build in builds]
    for build in builds:
        build.set_threads(2)
    assert all(build.get_threads() == 2 for build in builds)
    yield builds
    for build, count in zip(builds, before):
        build.set_threads(count)


def counts(builds):
    return [build.get_threads() for build in builds]


def problem(seed=0, n_states=4, n_basis=40, n=20):
    rng = np.random.default_rng(seed)
    truth = np.zeros((n_basis, n_states))
    truth[:5] = rng.standard_normal((5, 1)) + 0.1 * rng.standard_normal(
        (5, n_states)
    )
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = [
        d @ truth[:, k] + 0.05 * rng.standard_normal(n)
        for k, d in enumerate(designs)
    ]
    return designs, targets


def fit(designs, targets):
    config = InitConfig(
        r0_grid=(0.5, 0.9), sigma0_grid=(0.1, 0.3), n_basis_grid=(5, 10)
    )
    return CBMF(init_config=config, seed=3).fit(designs, targets)


class TestCap:
    def test_caps_and_restores(self, two_threads):
        with single_blas_thread():
            assert counts(two_threads) == [1] * len(two_threads)
        assert counts(two_threads) == [2] * len(two_threads)

    def test_restores_on_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with single_blas_thread():
                raise RuntimeError("boom")
        assert counts(two_threads) == [2] * len(two_threads)

    def test_decorator_restores_on_exception(self, two_threads):
        @single_blas_thread()
        def inner():
            assert counts(two_threads) == [1] * len(two_threads)
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            inner()
        assert counts(two_threads) == [2] * len(two_threads)

    def test_nested_entries_do_not_restore_early(self, two_threads):
        with single_blas_thread():
            with single_blas_thread():
                assert counts(two_threads) == [1] * len(two_threads)
            assert counts(two_threads) == [1] * len(two_threads)
        assert counts(two_threads) == [2] * len(two_threads)

    def test_concurrent_fits_restore_original_count(self, two_threads):
        designs, targets = problem(n_states=3, n_basis=20, n=12)
        seen = []
        errors = []

        def worker():
            try:
                for _ in range(1000):
                    with single_blas_thread():
                        seen.append(counts(two_threads))
                fit(designs, targets)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(seen) == 4000
        assert all(c == [1] * len(two_threads) for c in seen)
        assert counts(two_threads) == [2] * len(two_threads)

    def test_no_builds_is_silent_noop(self, monkeypatch):
        real = blas_builds()
        before = counts(real)
        monkeypatch.setattr(blas, "_discover", lambda: [])
        monkeypatch.setattr(blas, "_CAP", blas._ThreadCap())
        assert blas_builds() == []
        assert blas_thread_counts() == {}
        with single_blas_thread():
            assert counts(real) == before
        assert counts(real) == before


class TestFitParity:
    def test_capped_fit_matches_uncapped(self, two_threads, monkeypatch):
        designs, targets = problem()
        seen = []

        def recording_init(*args, **kwargs):
            seen.append(counts(two_threads))
            return somp_initialize(*args, **kwargs)

        monkeypatch.setattr(cbmf, "somp_initialize", recording_init)
        with monkeypatch.context() as patch:
            patch.setattr(blas, "_discover", lambda: [])
            patch.setattr(blas, "_CAP", blas._ThreadCap())
            uncapped = fit(designs, targets)
        capped = fit(designs, targets)
        assert seen == [[2] * len(two_threads), [1] * len(two_threads)]
        assert counts(two_threads) == [2] * len(two_threads)

        a, b = uncapped.report_, capped.report_
        assert (a.init.r0, a.init.sigma0, a.init.n_basis) == (
            b.init.r0, b.init.sigma0, b.init.n_basis
        )
        assert a.init.support == b.init.support
        assert a.em.n_iterations == b.em.n_iterations
        np.testing.assert_allclose(
            capped.coef_, uncapped.coef_, rtol=1e-9, atol=1e-12
        )
