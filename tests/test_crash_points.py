"""Every persistent write is a crash point, and each one is survivable.

All files the system reads back land through one function,
:func:`repro.durable.write_atomic`.  These tests make its k-th call fail
just before the rename — the temp file is fully written, the target not
yet replaced — for every k of a short on-disk stream run (artifact
store + delta dir + publisher) and of a stage-graph run over an on-disk
store.  After each crash: no ``*.tmp`` file is left behind, the
published chain opens and verifies, and a resumed run lands on the
never-crashed run's digest and payloads.
"""

import sys
from unittest import mock

import pytest

import repro.durable
from repro.brands import build_paper_catalog
from repro.dns.deltazone import DeltaSegment, load_chain
from repro.dns.packedzone import PackedZone, stamp_generation
from repro.phishworld.events import EventTapeConfig
from repro.serve import SnapshotPublisher
from repro.squatting.detector import SquattingDetector
from repro.stages import ArtifactStore, StageRunner
from repro.stream import StreamingDriver
from tests.test_stage_graph import _Config, _make_counting_graph

# a base, two segments and one compaction: 18 writes in all
TAPE = EventTapeConfig(seed=11, n_events=280)
REAL_WRITE = repro.durable.write_atomic


class Crash(Exception):
    """The simulated kill."""


def crash_on_write(monkeypatch, k):
    """Make the k-th ``write_atomic`` call (1-based) fail before its
    rename; returns the list of paths every call was asked to write."""
    calls = []

    def write_atomic(path, data, **kwargs):
        calls.append(path)
        if len(calls) != k:
            return REAL_WRITE(path, data, **kwargs)
        with mock.patch("repro.durable.os.replace", side_effect=Crash):
            return REAL_WRITE(path, data, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "write_atomic", None) is REAL_WRITE:
            monkeypatch.setattr(module, "write_atomic", write_atomic)
    return calls


def assert_no_temp_files(root):
    assert sorted(root.rglob("*.tmp")) == []


# ----------------------------------------------------------------------
# stream: store + delta dir + publisher
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def detector():
    return SquattingDetector(build_paper_catalog())


def stream_run(detector, root):
    return StreamingDriver(
        detector, TAPE, base_events=120, segment_events=80,
        compact_every=2, delta_dir=root / "deltas",
        store=ArtifactStore(root / "store"),
        publisher=SnapshotPublisher(root / "pub")).run()


def unstamped(zone):
    return stamp_generation(zone, 0).to_bytes()


@pytest.fixture(scope="module")
def clean_stream(detector, tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        calls = crash_on_write(patch, 0)        # count, never crash
        outcome = stream_run(detector, tmp_path_factory.mktemp("clean"))
    return outcome, len(calls)


def test_stream_write_count(clean_stream):
    _, writes = clean_stream
    assert writes == 18


def _published_chain_verifies(publisher):
    chain = publisher.current_chain()
    if chain is None:
        return
    _generation, base_path, delta_paths = chain
    PackedZone.load(base_path).verify()
    for path in delta_paths:
        DeltaSegment.load(path).verify()
    load_chain(base_path, delta_paths)     # raises on a broken binding


def test_stream_survives_a_crash_at_every_write(detector, clean_stream,
                                                tmp_path, monkeypatch):
    clean, writes = clean_stream
    for k in range(1, writes + 1):
        root = tmp_path / f"crash-{k:02d}"
        crash_on_write(monkeypatch, k)
        with pytest.raises(Crash):
            stream_run(detector, root)
        monkeypatch.undo()

        assert_no_temp_files(root)
        _published_chain_verifies(SnapshotPublisher(root / "pub"))

        resumed = stream_run(detector, root)
        assert resumed.match_digest == clean.match_digest, k
        assert resumed.matches == clean.matches, k
        assert unstamped(resumed.base) == unstamped(clean.base), k
        assert resumed.stats.digest_checks == clean.stats.digest_checks
        _published_chain_verifies(SnapshotPublisher(root / "pub"))
        for path in sorted((root / "deltas").glob("*.pzon")):
            DeltaSegment.load(path).verify()
        assert_no_temp_files(root)


# ----------------------------------------------------------------------
# stage graph over an on-disk store
# ----------------------------------------------------------------------

def graph_run(store, previous=None, calls=None):
    return StageRunner(_make_counting_graph([] if calls is None else calls),
                       store=store, config=_Config(), run_id="run-0001",
                       previous=previous).run()


def test_stage_graph_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    clean_store = ArtifactStore(tmp_path / "clean")
    counted = crash_on_write(monkeypatch, 0)
    clean = graph_run(clean_store)
    monkeypatch.undo()
    writes = len(counted)
    assert writes == 6          # three objects, three manifest saves

    for k in range(1, writes + 1):
        store = ArtifactStore(tmp_path / f"crash-{k}")
        crash_on_write(monkeypatch, k)
        with pytest.raises(Crash):
            graph_run(store)
        monkeypatch.undo()
        assert_no_temp_files(store.root)

        previous = (store.load_manifest("run-0001")
                    if store.list_runs() else None)
        done = sorted(previous.records) if previous else []
        calls = []
        resumed = graph_run(store, previous, calls)
        assert resumed.payloads() == clean.payloads(), k
        # a stage whose manifest row landed is never recomputed
        assert not set(calls) & set(done), k
        assert sorted(resumed.manifest.cached_stages()) == done, k
        assert {key: (rec.outputs, rec.fingerprint)
                for key, rec in store.load_manifest("run-0001")
                .records.items()} == \
            {key: (rec.outputs, rec.fingerprint)
             for key, rec in clean.manifest.records.items()}
        assert_no_temp_files(store.root)
