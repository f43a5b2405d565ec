"""Streaming driver: digest identity with batch, kill/resume, publishing.

The headline contract (ISSUE 8): a streaming run — ingest → delta-scan →
compact over a full event tape — produces a match set byte-identical to a
from-scratch batch scan over the union, at any worker count, and a killed
driver resumes from the artifact store onto the same bytes.
"""

import pytest

from repro.brands import build_paper_catalog
from repro.dns.deltazone import SegmentedZone
from repro.dns.packedzone import PackedZone, pack_zone
from repro.phishworld.events import (
    EventTapeConfig,
    build_tape,
    replay_into_store,
)
from repro.serve import QueryEngine, SnapshotPublisher, serve_load
from repro.serve import publisher as publisher_module
from repro.squatting.detector import SquattingDetector
from repro.squatting.packedscan import packed_scan
from repro.stages import ArtifactStore, digest_squat_matches
from repro.stream import StreamingDriver

TAPE = EventTapeConfig(seed=11, n_events=700)


@pytest.fixture(scope="module")
def detector():
    return SquattingDetector(build_paper_catalog())


@pytest.fixture(scope="module")
def batch_digest(detector):
    tape = build_tape(TAPE)
    matches = packed_scan(detector, pack_zone(replay_into_store(tape)))
    return digest_squat_matches(matches)


def make_driver(detector, **kwargs):
    kwargs.setdefault("base_events", 250)
    kwargs.setdefault("segment_events", 80)
    kwargs.setdefault("compact_every", 3)
    return StreamingDriver(detector, TAPE, **kwargs)


# ----------------------------------------------------------------------
# streaming == batch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 4])
def test_streaming_matches_batch(detector, batch_digest, workers):
    outcome = make_driver(detector, workers=workers).run()
    assert not outcome.interrupted
    assert outcome.match_digest == batch_digest
    stats = outcome.stats
    assert stats.digest_checks >= stats.compactions > 0
    assert stats.events == TAPE.n_events - stats.base_events
    assert stats.live_matches == len(outcome.matches)
    assert stats.latencies and stats.latency_p50 > 0.0


def test_streaming_latency_is_sim_clock(detector):
    outcome = make_driver(detector).run()
    # every detection happens at its segment flush, so sim latency is
    # bounded by one segment's worth of the tape, not by host speed
    # (zero is legal: an add on the flush boundary detects instantly)
    tape = build_tape(TAPE)
    span = tape[-1].at - tape[0].at
    assert all(0.0 <= lat <= span for lat in outcome.stats.latencies)


def test_streaming_digest_check_fires_each_compaction(detector):
    outcome = make_driver(detector, compact_every=2).run()
    assert outcome.stats.digest_checks == outcome.stats.compactions
    assert outcome.stats.compactions >= 2


# ----------------------------------------------------------------------
# kill / resume through the artifact store
# ----------------------------------------------------------------------

def test_kill_and_resume_lands_on_batch_bytes(detector, batch_digest,
                                              tmp_path):
    store = ArtifactStore(tmp_path / "store")
    killed = make_driver(detector, store=store).run(limit_segments=3)
    assert killed.interrupted
    assert killed.stats.segments == 3

    resumed = make_driver(detector, store=store).run()
    assert not resumed.interrupted
    assert resumed.match_digest == batch_digest
    # the killed run's completed segments replay from the store
    assert resumed.stats.cached_segments == 3


def test_resume_survives_process_style_restart(detector, batch_digest,
                                               tmp_path):
    # two distinct driver objects over the same on-disk store — the
    # stage-graph fingerprints, not in-memory state, carry the resume
    store_dir = tmp_path / "store"
    make_driver(detector, store=ArtifactStore(store_dir)).run(
        limit_segments=2)
    second = make_driver(detector, store=ArtifactStore(store_dir)).run()
    assert second.match_digest == batch_digest
    assert second.stats.cached_segments == 2


def test_delta_dir_gets_segment_files(detector, tmp_path):
    delta_dir = tmp_path / "deltas"
    outcome = make_driver(detector, delta_dir=delta_dir).run()
    files = sorted(path.name for path in delta_dir.glob("seg-*.pzon"))
    assert len(files) == outcome.stats.segments


# ----------------------------------------------------------------------
# publishing + serving pickup
# ----------------------------------------------------------------------

def test_publisher_chain_grows_and_serving_sees_deltas(detector, tmp_path):
    publisher = SnapshotPublisher(tmp_path / "pub")
    driver = make_driver(detector, publisher=publisher, compact_every=4)
    outcome = driver.run(limit_segments=2)   # stop before any compaction
    generation, base_path, delta_paths = publisher.current_chain()
    assert len(delta_paths) == 2
    assert generation == 3                   # base + two delta publishes

    chain = SegmentedZone.load_chain(base_path, delta_paths)
    chain.verify()
    engine = QueryEngine(detector, chain, generation=generation)
    streamed = [m.domain for m in outcome.matches][:5]
    verdicts = engine.lookup_batch(streamed + ["not-on-the-tape-zzz.com"])
    assert all(v.registered for v in verdicts[:-1])
    assert all(v.is_squat for v in verdicts[:-1])
    assert not verdicts[-1].registered


def test_compaction_resets_published_chain(detector, tmp_path):
    publisher = SnapshotPublisher(tmp_path / "pub")
    make_driver(detector, publisher=publisher).run()
    generation, _base, delta_paths = publisher.current_chain()
    assert delta_paths == []                 # final publish was a compaction
    assert generation > 1


def test_serve_load_hot_reloads_published_deltas(detector, tmp_path):
    publisher = SnapshotPublisher(tmp_path / "pub")
    driver = make_driver(detector, publisher=publisher, compact_every=4)
    outcome = driver.run(limit_segments=2)
    generation, base_path, delta_paths = publisher.current_chain()
    chain = SegmentedZone.load_chain(base_path, delta_paths)

    # a delta-added squat: present in the chain, absent from the base
    base = PackedZone.load(base_path)
    added = next(m.domain for m in outcome.matches
                 if not base.has_registered_domain(m.domain))
    requests = [(i * 0.01, added) for i in range(8)]
    verdicts, stats = serve_load(detector, base, requests,
                                 publisher=publisher)
    assert stats.generation_swaps == 1
    assert all(v.generation == generation for v in verdicts)
    assert all(v.registered and v.is_squat for v in verdicts)
    # and the chain answers exactly like a direct engine over it
    direct = QueryEngine(detector, chain,
                         generation=generation).lookup_batch([added])
    assert verdicts[0] == direct[0]


# ----------------------------------------------------------------------
# publisher crash safety (satellite)
# ----------------------------------------------------------------------

def test_publish_crash_before_pointer_swap_keeps_old_generation(
        detector, tmp_path, monkeypatch):
    publisher = SnapshotPublisher(tmp_path / "pub")
    tape = build_tape(TAPE)
    zone = pack_zone(replay_into_store(tape[:200]))
    generation, path = publisher.publish(zone)

    real = publisher_module.write_atomic

    def crash_on_pointer(target, data, **kwargs):
        if target.name == "CURRENT":
            raise OSError("simulated crash between data write and swap")
        return real(target, data, **kwargs)

    monkeypatch.setattr(publisher_module, "write_atomic", crash_on_pointer)
    with pytest.raises(OSError):
        publisher.publish(pack_zone(replay_into_store(tape[:300])))
    monkeypatch.setattr(publisher_module, "write_atomic", real)

    # the previous generation is still live and fully readable
    state = publisher.current()
    assert state == (generation, path)
    survivor = publisher.open_current()
    survivor.verify()
    assert survivor.generation == generation
    # and a healthy retry publishes over the orphaned data file cleanly
    next_generation, _ = publisher.publish(zone)
    assert next_generation == generation + 1


def test_publish_delta_requires_a_base(tmp_path):
    publisher = SnapshotPublisher(tmp_path / "pub")
    with pytest.raises(ValueError):
        publisher.publish_delta(b"anything")


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------

def test_cli_stream_smoke(capsys):
    from repro.cli import main

    code = main(["stream", "--events", "500", "--base-events", "200",
                 "--segment-events", "100", "--compact-every", "2",
                 "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "match digest:" in out
    assert "streaming-vs-batch digest checks" in out


def test_cli_stream_json_deterministic(capsys):
    from repro.cli import main

    args = ["stream", "--events", "400", "--base-events", "150",
            "--segment-events", "90", "--seed", "13", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    import json
    a, b = json.loads(first), json.loads(second)
    for volatile in ("wall_seconds", "events_per_sec"):
        a.pop(volatile), b.pop(volatile)
    assert a == b
