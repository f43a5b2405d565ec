"""Lifecycle analytics: worker invariance, oracle equality, report shape."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis.lifecycle import (
    ORGANIC,
    diff_chain_digest,
    diff_series,
    diff_series_serial,
    lifecycle_report,
)
from repro.brands import build_paper_catalog
from repro.perf import engine
from repro.phishworld.series import SeriesConfig, generate_series
from repro.squatting.detector import SquattingDetector

CONFIG = SeriesConfig(n_snapshots=5, base_events=250,
                      events_per_snapshot=120)


@pytest.fixture(scope="module")
def series():
    return generate_series(CONFIG)


@pytest.fixture(scope="module")
def detector():
    return SquattingDetector(build_paper_catalog(200))


@pytest.mark.parametrize("worker_counts,start_method", [
    pytest.param((1, 2, 4), None, id="1-2-4"),
    pytest.param((1, 2), "forkserver", id="2-forkserver"),
])
def test_diff_chain_is_worker_count_invariant(series, worker_counts,
                                              start_method, monkeypatch):
    started = []
    if start_method is not None:
        # forkserver (the Linux default from Python 3.14) workers import
        # repro afresh, mmap the pair files by path and pickle each
        # DiffTable back
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method here")
        mp_context = multiprocessing.get_context(start_method)

        def pool(**kwargs):
            started.append(kwargs["max_workers"])
            return ProcessPoolExecutor(mp_context=mp_context, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
    chains = {workers: diff_chain_digest(diff_series(series,
                                                     workers=workers))
              for workers in worker_counts}
    assert len(set(chains.values())) == 1
    assert started or start_method is None


def test_parallel_chain_equals_serial_oracle(series):
    parallel = diff_series(series, workers=2)
    serial = diff_series_serial(series)
    assert [d.digest for d in parallel] == [d.digest for d in serial]
    assert diff_chain_digest(parallel) == diff_chain_digest(serial)


def test_diff_series_needs_two_snapshots():
    single = generate_series(SeriesConfig(
        n_snapshots=1, base_events=60, events_per_snapshot=10))
    with pytest.raises(ValueError):
        diff_series(single)


def test_report_is_deterministic(series, detector):
    first = lifecycle_report(series, detector=detector)
    second = lifecycle_report(series, detector=detector, workers=2)
    assert first.chain_digest == second.chain_digest
    assert first.as_dict() == second.as_dict()


def test_report_shape_and_conservation(series, detector):
    report = lifecycle_report(series, detector=detector)
    assert report.snapshots == len(series)
    assert report.cadence_days == CONFIG.cadence_days
    assert len(report.diff_digests) == len(series) - 1
    assert len(report.pair_counts) == len(series) - 1

    # every domain ever alive lands in exactly one family bucket
    total_born = sum(fam.born for fam in report.families.values())
    alive_union = set()
    for snap in series:
        zone = snap.zone
        for reg_id in range(zone.n_registered):
            alive_union.add(zone.registered_at(reg_id))
    assert total_born == len(alive_union)

    for fam in report.families.values():
        assert 0.0 <= fam.rereg_rate <= 1.0
        assert 0.0 <= fam.blacklist_coverage <= 1.0
        assert fam.takedowns <= len(fam.lifetimes)
        # survival starts at 1.0 and never rises
        curve = fam.survival()
        values = [s for _t, s in curve]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_churny_series_produces_lifecycle_signal(series, detector):
    report = lifecycle_report(series, detector=detector)
    families = report.families
    assert ORGANIC in families
    squat_families = {name for name in families if name != ORGANIC}
    assert squat_families                        # squats were observed
    assert sum(f.takedowns for f in families.values()) > 0
    assert sum(f.weaponized for f in families.values()) > 0


def test_organic_domains_skip_the_blacklist(series, detector):
    report = lifecycle_report(series, detector=detector)
    organic = report.families[ORGANIC]
    assert organic.blacklisted == 0
    assert organic.blacklist_lag_days is None


def test_blacklist_seed_changes_coverage_not_diffs(series, detector):
    base = lifecycle_report(series, detector=detector, blacklist_seed=1)
    other = lifecycle_report(series, detector=detector, blacklist_seed=2)
    assert base.chain_digest == other.chain_digest
    covered = lambda rep: tuple(fam.blacklisted
                                for _n, fam in sorted(rep.families.items()))
    # different seeds draw different coverage outcomes (overwhelmingly)
    assert covered(base) != covered(other) or \
        sum(covered(base)) == 0


def test_precomputed_diffs_are_accepted(series, detector):
    diffs = diff_series_serial(series)
    report = lifecycle_report(series, diffs=diffs, detector=detector)
    assert report.chain_digest == diff_chain_digest(diffs)
