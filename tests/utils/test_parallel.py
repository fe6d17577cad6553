"""Tests for the deterministic process-pool map."""

import os

import numpy as np
import pytest

from repro.utils.blas import blas_thread_counts
from repro.utils.parallel import derive_seeds, parallel_map, resolve_workers


# Cells must be module-level to pickle under the spawn start method.
def _square(x):
    return x * x


def _scale(x, payload):
    return x * payload["factor"]


def _draw(seed_seq, payload):
    rng = np.random.default_rng(seed_seq)
    return float(rng.standard_normal())


def _blas_threads(_):
    return blas_thread_counts()


class TestResolveWorkers:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert resolve_workers() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_clamped_to_items(self):
        assert resolve_workers(8, n_items=3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestDeriveSeeds:
    def test_count(self):
        assert len(derive_seeds(0, 5)) == 5

    def test_reproducible(self):
        a = [s.generate_state(2).tolist() for s in derive_seeds(7, 4)]
        b = [s.generate_state(2).tolist() for s in derive_seeds(7, 4)]
        assert a == b

    def test_accepts_generator(self):
        gen = np.random.default_rng(3)
        seeds = derive_seeds(gen, 2)
        assert len(seeds) == 2

    def test_children_differ(self):
        states = [
            tuple(s.generate_state(2).tolist()) for s in derive_seeds(0, 6)
        ]
        assert len(set(states)) == 6

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            derive_seeds(0, -1)


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, []) == []

    def test_serial(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_with_shared(self):
        out = parallel_map(_scale, [1, 2], shared={"factor": 10})
        assert out == [10, 20]

    def test_parallel_matches_serial(self):
        serial = parallel_map(_square, list(range(8)), max_workers=1)
        pooled = parallel_map(_square, list(range(8)), max_workers=4)
        assert serial == pooled

    def test_parallel_shared_matches_serial(self):
        items = list(range(6))
        serial = parallel_map(
            _scale, items, shared={"factor": 3}, max_workers=1
        )
        pooled = parallel_map(
            _scale, items, shared={"factor": 3}, max_workers=3
        )
        assert serial == pooled

    def test_seeded_cells_bit_identical(self):
        seeds = derive_seeds(11, 6)
        serial = parallel_map(_draw, seeds, shared={}, max_workers=1)
        pooled = parallel_map(_draw, seeds, shared={}, max_workers=3)
        assert serial == pooled

    def test_env_activates_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert parallel_map(_square, [2, 3]) == [4, 9]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        if not blas_thread_counts():
            pytest.skip("no OpenBLAS build is loaded in this process")
        # Spawned workers inherit the environment: without the cap each
        # would start two BLAS threads (or nproc, if that is fewer).
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        seen = parallel_map(_blas_threads, [0, 1, 2], max_workers=2)
        assert all(counts for counts in seen)
        assert all(
            set(counts.values()) == {1} for counts in seen
        ), seen
