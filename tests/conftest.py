"""Shared fixtures.

The expensive artifacts — a synthetic world and a full pipeline run — are
session-scoped so the integration tests share one build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.brands import build_paper_catalog
from repro.core import PipelineConfig, SquatPhi
from repro.perf import engine
from repro.phishworld.world import WorldConfig, build_world
from repro.squatting import packedscan


@pytest.fixture(scope="session")
def catalog():
    """The 702-brand catalog (cheap, deterministic)."""
    return build_paper_catalog()


@pytest.fixture(scope="session")
def micro_world():
    """A very small world for unit-ish integration tests."""
    return build_world(WorldConfig(
        seed=1803,
        n_organic_domains=120,
        n_squat_domains=220,
        n_phish_domains=32,
        phishtank_reports=110,
    ))


@pytest.fixture(scope="session")
def pipeline(micro_world):
    """A trained SquatPhi over the micro world."""
    return SquatPhi(micro_world, PipelineConfig(cv_folds=4, rf_trees=12))


@pytest.fixture(scope="session")
def pipeline_result(pipeline):
    """One full pipeline run (all stages, follow-up snapshots included)."""
    return pipeline.run(follow_up_snapshots=True)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def small_slices(monkeypatch):
    """Shrink kernel slices so a small test zone splits across a real pool.

    ``small_slices(rows)`` sets the slice size and returns a list that
    gets the task count of every process pool started appended to it, so
    a test can assert the pool started with more than one slice.
    """
    pooled = []

    class CountingPool(engine.ProcessPoolExecutor):
        def map(self, fn, items, **kwargs):
            items = list(items)
            pooled.append(len(items))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)

    def shrink(rows):
        monkeypatch.setattr(packedscan, "PACKED_CHUNK", rows)
        return pooled
    return shrink
