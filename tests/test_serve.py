"""Interactive serving layer: batching, caching, hot reload, byte-identity.

The contract under test (DESIGN.md §13): every served verdict is a pure
function of (normalized name, snapshot generation).  Micro-batching,
the negative cache and hot-reload timing are throughput/latency knobs —
any serving configuration must reproduce the offline per-name
scan/classify oracle byte for byte.
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.brands import Brand, BrandCatalog
from repro.dns.packedzone import (
    PackedZone,
    PackedZoneBuilder,
    attach_enrichment,
    stamp_generation,
)
from repro.dns.zone import MISS, ZoneStore
from repro.enrich import EnrichmentTable
from repro.serve import (
    NegativeVerdictCache,
    QueryEngine,
    SnapshotPublisher,
    Verdict,
    digest_verdicts,
    offline_verdicts,
    percentile,
    plan_batches,
    serve_load,
    synth_requests,
    verdict_line,
)
from repro.serve import server
from repro.squatting.detector import SquattingDetector

ZONE_NAMES = [
    "facebook.com", "www.facebook.com", "google.com", "paypal.com",
    "faceb00k.com", "paypa1.net", "xn--fcebook-8va.com",
    "example.org", "innocent-shop.net", "news.example.org",
]

QUERIES = [
    "facebook.com", "FACEBOOK.COM.", "faceb00k.com", "paypa1.net",
    "google.com", "example.org", "www.example.org", "never-seen.xyz",
    "gooogle.com", "paypal.com", "innocent-shop.net", "",
]


@pytest.fixture(scope="module")
def detector():
    catalog = BrandCatalog()
    for domain in ("facebook.com", "google.com", "paypal.com"):
        catalog.add(Brand(name=domain.split(".")[0], domain=domain))
    return SquattingDetector(catalog)


@pytest.fixture(scope="module")
def zone():
    builder = PackedZoneBuilder()
    for i, name in enumerate(ZONE_NAMES):
        builder.add_name(name, ip=f"10.0.0.{i + 1}")
    return builder.build()


def _verdict(domain="benign.com", generation=0):
    return Verdict(domain=domain, generation=generation, registered=False)


# ----------------------------------------------------------------------
# negative-verdict cache
# ----------------------------------------------------------------------

def test_negcache_hit_returns_same_object():
    cache = NegativeVerdictCache(ttl=10.0, capacity=4)
    verdict = _verdict()
    cache.put("benign.com", 0, now=0.0, verdict=verdict)
    assert cache.get("benign.com", 0, now=5.0) is verdict
    assert cache.hits == 1


def test_negcache_ttl_expiry():
    cache = NegativeVerdictCache(ttl=10.0, capacity=4)
    cache.put("benign.com", 0, now=0.0, verdict=_verdict())
    assert cache.get("benign.com", 0, now=9.999) is not None
    assert cache.get("benign.com", 0, now=10.0) is None  # expiry inclusive
    assert len(cache) == 0  # expired entry dropped, not kept
    assert cache.misses == 1


def test_negcache_capacity_eviction_is_fifo():
    cache = NegativeVerdictCache(ttl=100.0, capacity=2)
    cache.put("a.com", 0, 0.0, _verdict("a.com"))
    cache.put("b.com", 0, 0.0, _verdict("b.com"))
    cache.put("c.com", 0, 0.0, _verdict("c.com"))  # evicts a.com
    assert cache.evictions == 1
    assert cache.get("a.com", 0, 1.0) is None
    assert cache.get("b.com", 0, 1.0) is not None
    assert cache.get("c.com", 0, 1.0) is not None


def test_negcache_reput_refreshes_fifo_slot():
    cache = NegativeVerdictCache(ttl=100.0, capacity=2)
    cache.put("a.com", 0, 0.0, _verdict("a.com"))
    cache.put("b.com", 0, 0.0, _verdict("b.com"))
    cache.put("a.com", 0, 1.0, _verdict("a.com"))  # re-put: a is now newest
    cache.put("c.com", 0, 2.0, _verdict("c.com"))  # evicts b, not a
    assert cache.get("a.com", 0, 3.0) is not None
    assert cache.get("b.com", 0, 3.0) is None


def test_negcache_generation_swap_invalidates():
    cache = NegativeVerdictCache(ttl=100.0, capacity=8)
    cache.put("benign.com", 1, 0.0, _verdict(generation=1))
    assert cache.get("benign.com", 2, 1.0) is None  # new generation: miss
    assert cache.invalidations == 1
    assert len(cache) == 0  # dropped eagerly


def test_negcache_purge_stale():
    cache = NegativeVerdictCache(ttl=100.0, capacity=8)
    cache.put("a.com", 1, 0.0, _verdict("a.com", 1))
    cache.put("b.com", 2, 0.0, _verdict("b.com", 2))
    assert cache.purge_stale(2) == 1
    assert len(cache) == 1
    assert cache.get("b.com", 2, 1.0) is not None


def test_negcache_rejects_bad_knobs():
    with pytest.raises(ValueError):
        NegativeVerdictCache(ttl=0.0)
    with pytest.raises(ValueError):
        NegativeVerdictCache(capacity=0)


# ----------------------------------------------------------------------
# micro-batch planning
# ----------------------------------------------------------------------

def test_plan_batches_respects_max_batch():
    requests = [(0.001 * i, f"d{i}.com") for i in range(10)]
    batches = plan_batches(requests, max_batch=4, max_delay=1.0)
    assert [len(b) for b in batches] == [4, 4, 2]
    # a size-closed batch dispatches at its filling request's arrival
    assert batches[0].dispatch_at == pytest.approx(0.003)
    # order is preserved end to end
    assert [n for b in batches for n in b.names] == \
        [name for _, name in requests]


def test_plan_batches_respects_max_delay():
    requests = [(0.0, "a.com"), (0.002, "b.com"), (0.050, "c.com")]
    batches = plan_batches(requests, max_batch=64, max_delay=0.005)
    assert [b.names for b in batches] == [("a.com", "b.com"), ("c.com",)]
    # a delay-closed batch leaves at its deadline, not the next arrival
    assert batches[0].dispatch_at == pytest.approx(0.005)
    assert batches[1].dispatch_at == pytest.approx(0.055)


def test_plan_batches_unbatched_degenerates():
    requests = [(0.01 * i, f"d{i}.com") for i in range(5)]
    batches = plan_batches(requests, max_batch=1, max_delay=0.0)
    assert [len(b) for b in batches] == [1] * 5
    assert [b.dispatch_at for b in batches] == [r[0] for r in requests]


def test_plan_batches_rejects_unsorted_stream():
    with pytest.raises(ValueError, match="arrival-ordered"):
        plan_batches([(1.0, "a.com"), (0.5, "b.com")], 64, 0.005)
    # the check must survive a flush boundary
    with pytest.raises(ValueError, match="arrival-ordered"):
        plan_batches([(1.0, "a.com"), (1.0, "b.com"), (0.5, "c.com")],
                     max_batch=2, max_delay=0.005)


def test_plan_batches_rejects_bad_knobs():
    with pytest.raises(ValueError):
        plan_batches([], max_batch=0, max_delay=0.1)
    with pytest.raises(ValueError):
        plan_batches([], max_batch=1, max_delay=-0.1)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=7),
       st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_plan_batches_properties(gaps, max_batch, max_delay):
    at = 0.0
    requests = []
    for i, gap in enumerate(gaps):
        at += gap
        requests.append((at, f"d{i}.com"))
    batches = plan_batches(requests, max_batch, max_delay)
    # partition: every request appears exactly once, in order
    assert [n for b in batches for n in b.names] == \
        [name for _, name in requests]
    for batch in batches:
        assert 1 <= len(batch) <= max_batch
        # dispatch never precedes any member's arrival, never exceeds
        # the first member's deadline
        assert batch.dispatch_at >= batch.arrivals[-1] - 1e-9
        assert batch.dispatch_at <= batch.arrivals[0] + max_delay + 1e-9


# ----------------------------------------------------------------------
# zone lookup plumbing (satellites: MISS marker, registered_ids)
# ----------------------------------------------------------------------

def test_zonestore_get_many_returns_miss_marker():
    zone = ZoneStore()
    zone.add_name("facebook.com", ip="1.2.3.4")
    record, missing = zone.get_many(["FACEBOOK.COM.", "absent.org"])
    assert record.name == "facebook.com"
    assert missing is MISS
    assert not missing          # falsy by contract
    assert repr(missing) == "MISS"


def test_packed_get_many_matches_zonestore(zone):
    store = ZoneStore()
    for i, name in enumerate(ZONE_NAMES):
        store.add_name(name, ip=f"10.0.0.{i + 1}")
    queries = ZONE_NAMES + ["absent.org", "WWW.FACEBOOK.COM."]
    packed_records = zone.get_many(queries)
    dict_records = store.get_many(queries)
    for packed_rec, dict_rec in zip(packed_records, dict_records):
        if dict_rec is MISS:
            assert packed_rec is MISS
        else:
            assert packed_rec.name == dict_rec.name


def test_registered_ids_matches_dict_index(zone):
    order = list(zone.registered_domains())
    oracle = {domain: i for i, domain in enumerate(order)}
    queries = ["facebook.com", "EXAMPLE.ORG.", "www.facebook.com",
               "absent.net", "", "x" * 80 + ".com"]
    ids = zone.registered_ids(queries)
    from repro.dns.records import registered_domain
    for name, reg_id in zip(queries, ids):
        expected = oracle.get(registered_domain(name.lower().rstrip(".")), -1)
        assert int(reg_id) == expected


# ----------------------------------------------------------------------
# engine verdicts == offline oracle
# ----------------------------------------------------------------------

def test_engine_matches_offline_oracle(detector, zone):
    engine = QueryEngine(detector, zone)
    served = engine.lookup_batch(QUERIES)
    offline = offline_verdicts(detector, zone, QUERIES)
    assert digest_verdicts(served) == digest_verdicts(offline)
    by_domain = {v.domain: v for v in served}
    assert by_domain["faceb00k.com"].is_squat
    assert by_domain["faceb00k.com"].registered
    assert by_domain["never-seen.xyz"].registered is False
    assert by_domain["facebook.com"].is_squat is False


def test_engine_negcache_transparent(detector, zone):
    cached = QueryEngine(detector, zone,
                         negcache=NegativeVerdictCache(ttl=60.0))
    uncached = QueryEngine(detector, zone)
    for _ in range(3):  # repeats hit the cache on later batches
        assert digest_verdicts(cached.lookup_batch(QUERIES)) == \
            digest_verdicts(uncached.lookup_batch(QUERIES))
    assert cached.stats.negcache_hits > 0


def test_engine_serves_enrichment_columns(detector, zone):
    from repro.enrich.backends import ip_to_u32

    table = EnrichmentTable(list(zone.registered_domains()))
    row = table.row_of("facebook.com")
    table.set_value("a", row, ip_to_u32("93.184.216.34"))
    table.set_value("geo", row, "US")
    table.set_value("mx", row, True)
    table.set_value("whois", row, (2004, "MarkMonitor"))
    enriched = attach_enrichment(zone, table.finalize())

    engine = QueryEngine(detector, enriched)
    served = engine.lookup_batch(QUERIES)
    offline = offline_verdicts(detector, enriched, QUERIES)
    assert digest_verdicts(served) == digest_verdicts(offline)
    verdict = {v.domain: v for v in served}["facebook.com"]
    enr = dict(verdict.enrichment)
    assert enr["a_ip"] == "93.184.216.34"
    assert enr["country"] == "US"
    assert enr["mx_present"] is True
    assert enr["registrar"] == "MarkMonitor"
    assert enr["year"] == 2004


def test_engine_scorer_is_part_of_the_verdict(detector, zone):
    engine = QueryEngine(detector, zone,
                         scorer=lambda name: 0.25 if "facebook" in name
                         else None)
    verdicts = {v.domain: v for v in engine.lookup_batch(QUERIES)}
    assert verdicts["facebook.com"].score == 0.25
    assert verdicts["google.com"].score is None
    assert "0.250000000" in verdict_line(verdicts["facebook.com"])


def test_verdict_pickle_roundtrip(detector, zone):
    served = QueryEngine(detector, zone).lookup_batch(QUERIES)
    assert pickle.loads(pickle.dumps(served)) == served


@functools.lru_cache(maxsize=1)
def _prop_state():
    # hypothesis can't take fixtures: tiny statics built once
    catalog = BrandCatalog()
    catalog.add(Brand(name="facebook", domain="facebook.com"))
    builder = PackedZoneBuilder()
    for name in ZONE_NAMES:
        builder.add_name(name)
    return SquattingDetector(catalog), builder.build()


@given(st.text(alphabet="abco0-.x", max_size=24))
@settings(max_examples=120, deadline=None)
def test_engine_pure_per_name_property(s):
    detector, zone = _prop_state()
    name = s + ".com" if s and "." not in s else s
    served = QueryEngine(detector, zone).lookup_batch([name])
    offline = offline_verdicts(detector, zone, [name])
    assert digest_verdicts(served) == digest_verdicts(offline)


# ----------------------------------------------------------------------
# publisher: atomic generations
# ----------------------------------------------------------------------

def test_publisher_generations_increment(tmp_path, zone):
    publisher = SnapshotPublisher(tmp_path / "pub")
    assert publisher.current() is None
    assert publisher.open_current() is None
    gen1, path1 = publisher.publish(zone)
    gen2, path2 = publisher.publish(zone)
    assert (gen1, gen2) == (1, 2)
    assert path1 != path2 and path1.exists()  # old generation kept on disk
    current = publisher.current()
    assert current == (2, path2)
    live = publisher.open_current()
    assert live.generation == 2
    assert len(live) == len(zone)
    assert (tmp_path / "pub" / "CURRENT").exists()


def test_stamp_generation_zero_is_byte_stable(zone):
    stamped = stamp_generation(zone, 7)
    assert stamped.generation == 7
    assert PackedZone.from_bytes(stamped.to_bytes()).generation == 7
    # un-stamping back to generation 0 restores the original bytes
    assert stamp_generation(stamped, 0).to_bytes() == zone.to_bytes()


# ----------------------------------------------------------------------
# the serving front
# ----------------------------------------------------------------------

def _requests(detector, zone, n=400):
    return synth_requests(
        n, qps=5000.0,
        registered=list(zone.registered_domains()),
        squats=["faceb00k.com", "paypa1.net", "gooogle.com"])


def test_serve_load_serial_matches_oracle(detector, zone):
    requests = _requests(detector, zone)
    verdicts, stats = serve_load(detector, zone, requests,
                                 max_batch=16, max_delay=0.002)
    offline = offline_verdicts(detector, zone,
                               [name for _, name in requests])
    assert digest_verdicts(verdicts) == digest_verdicts(offline)
    assert stats.queries == len(requests)
    assert stats.dropped == 0
    assert stats.batches == len(plan_batches(requests, 16, 0.002))
    assert stats.negcache_hits > 0
    assert stats.p99_ms >= stats.p50_ms >= 0.0

    _verdicts, uncached = serve_load(detector, zone, requests, max_batch=16,
                                     max_delay=0.002, negcache=False)
    ledger = uncached.as_dict()
    # no negative cache: every query reaches the kernel exactly once
    assert ledger["kernel_rows"] == uncached.queries == len(requests)
    assert ledger["fallbacks"]


def test_serve_load_knobs_never_change_verdicts(detector, zone):
    requests = _requests(detector, zone)
    reference = digest_verdicts(serve_load(
        detector, zone, requests, max_batch=1, max_delay=0.0,
        negcache=False)[0])
    for max_batch, negcache in ((64, True), (16, True), (64, False)):
        verdicts, stats = serve_load(detector, zone, requests,
                                     max_batch=max_batch, max_delay=0.002,
                                     negcache=negcache)
        assert digest_verdicts(verdicts) == reference, (max_batch, negcache)
        assert stats.dropped == 0


def test_serve_load_scorer_scores_match_engine(detector, zone):
    def scorer(name):
        return 0.25 if "facebook" in name else None

    requests = _requests(detector, zone)
    verdicts, _stats = serve_load(detector, zone, requests, max_batch=16,
                                  max_delay=0.002, scorer=scorer)
    direct = QueryEngine(detector, zone, scorer=scorer).lookup_batch(
        [name for _, name in requests])
    assert [v.score for v in verdicts] == [v.score for v in direct]
    assert 0.25 in {v.score for v in verdicts}


def test_serve_load_latency_counts_the_backlog(detector, zone, monkeypatch):
    # one request per batch, dispatched 1 ms apart, each taking 10 ms to
    # serve: batch i starts when batch i - 1 finishes, at 10i ms, so its
    # request waits 9i ms before its own 10 ms of service
    serve_on = server._serve_on

    def fixed_service(engine, names, now):
        verdicts, _service = serve_on(engine, names, now)
        return verdicts, 0.010

    monkeypatch.setattr(server, "_serve_on", fixed_service)
    names = [name for _, name in _requests(detector, zone, n=100)]
    requests = [(i * 0.001, name) for i, name in enumerate(names)]
    verdicts, stats = serve_load(detector, zone, requests, max_batch=1,
                                 max_delay=0.0)
    assert stats.batches == 100
    assert stats.p50_ms == pytest.approx(9 * 49 + 10)
    assert stats.p99_ms == pytest.approx(9 * 98 + 10)
    # the negative cache's clock follows dispatch times, not service
    assert digest_verdicts(verdicts) == digest_verdicts(
        offline_verdicts(detector, zone, names))


@pytest.mark.parametrize("swaps", [1, 2])
def test_serve_load_hot_reload(detector, zone, tmp_path, swaps):
    publisher = SnapshotPublisher(tmp_path / "pub")
    _gen, path = publisher.publish(zone)
    gen_zones = {1: PackedZone.load(path)}
    requests = _requests(detector, zone)
    batches = plan_batches(requests, 16, 0.002)
    assert len(batches) >= 2 * (swaps + 1)
    # republish at evenly spaced batches: generation g + 1 goes live just
    # before batch swap_at[g - 1] is dispatched
    swap_at = [len(batches) * k // (swaps + 1) for k in range(1, swaps + 1)]

    def republish(index):
        if index in swap_at:
            generation, gen_path = publisher.publish(zone)
            gen_zones[generation] = PackedZone.load(gen_path)

    verdicts, stats = serve_load(detector, gen_zones[1], requests,
                                 max_batch=16, max_delay=0.002,
                                 publisher=publisher, on_dispatch=republish)
    assert stats.dropped == 0
    assert stats.generation_swaps == swaps
    # batch i is answered by the newest generation published before its
    # dispatch: generation g serves batches [bounds[g - 1], bounds[g])
    bounds = [0] + swap_at + [len(batches)]
    starts = [sum(len(batch.names) for batch in batches[:b]) for b in bounds]
    assert stats.served_by_generation == {
        g: starts[g] - starts[g - 1] for g in range(1, swaps + 2)}
    for g in range(1, swaps + 2):
        assert {v.generation
                for v in verdicts[starts[g - 1]:starts[g]]} == {g}
    # byte-identity holds per generation against that generation's zone
    for generation, gen_zone in gen_zones.items():
        group = [v for v in verdicts if v.generation == generation]
        expected = offline_verdicts(detector, gen_zone,
                                    [v.domain for v in group],
                                    generation=generation)
        assert digest_verdicts(group) == digest_verdicts(expected)


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------

def test_synth_requests_deterministic_and_ordered():
    first = synth_requests(200, qps=1000.0, registered=["a.com", "b.com"])
    second = synth_requests(200, qps=1000.0, registered=["a.com", "b.com"])
    assert first == second
    arrivals = [at for at, _ in first]
    assert arrivals == sorted(arrivals)
    assert len(first) == 200
    # the bounded pool guarantees repeats for the negcache to chew on
    assert len({name for _, name in first}) < 200


def test_synth_requests_validates():
    with pytest.raises(ValueError):
        synth_requests(0, qps=10.0)
    with pytest.raises(ValueError):
        synth_requests(10, qps=0.0)


def test_percentile_nearest_rank():
    assert percentile([], 99) == 0.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
