"""Property tests for the resilience primitives.

The retry ladder must be deterministic *across processes*
(checkpoint/resume replays delays computed by an earlier process) and its
envelope must be monotone.  Every :class:`~repro.perf.report.Counters`
subclass must merge order-independently (the pipeline folds per-snapshot
health in whatever order stages complete) and round-trip through
``delta`` and ``state_dict``/``apply_delta`` (resume replay).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.faults.resilience import CrawlHealth, RetryPolicy
from repro.perf.report import CacheStats, Counters, KernelStats


# ----------------------------------------------------------------------
# RetryPolicy: cross-process determinism
# ----------------------------------------------------------------------

_SUBPROCESS_SNIPPET = """
import json, sys
sys.path.insert(0, {src!r})
from repro.faults.resilience import RetryPolicy
policy = RetryPolicy(base_delay=1.5, max_delay=40.0, jitter=0.5)
print(json.dumps([policy.delay(a, k)
                  for k in ("web|host-a|0", "mx|ns.pw|shop.pw", "whois|x|y")
                  for a in range(8)]))
"""


def test_delay_is_identical_across_processes():
    """PYTHONHASHSEED must not leak into backoff (crc32, not hash())."""
    import repro
    src = repro.__file__.rsplit("/repro/", 1)[0]
    policy = RetryPolicy(base_delay=1.5, max_delay=40.0, jitter=0.5)
    local = [policy.delay(a, k)
             for k in ("web|host-a|0", "mx|ns.pw|shop.pw", "whois|x|y")
             for a in range(8)]
    for seed in ("0", "1", "random"):
        out = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET.format(src=src)],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"})
        assert json.loads(out.stdout) == local


# ----------------------------------------------------------------------
# RetryPolicy: ladder shape
# ----------------------------------------------------------------------

@given(
    base=st.floats(0.01, 10.0, allow_nan=False),
    max_delay=st.floats(1.0, 500.0, allow_nan=False),
    jitter=st.floats(0.0, 1.0, allow_nan=False),
    key=st.text(min_size=0, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_ladder_monotone_envelope(base, max_delay, jitter, key):
    """Raw rungs are nondecreasing; jitter only ever shaves downward."""
    policy = RetryPolicy(base_delay=base, max_delay=max_delay, jitter=jitter)
    raws = [min(base * (2.0 ** a), max_delay) for a in range(12)]
    assert raws == sorted(raws)
    for attempt, raw in enumerate(raws):
        delay = policy.delay(attempt, key)
        assert raw * (1.0 - jitter) - 1e-9 <= delay <= raw + 1e-9
        # deterministic: same (policy, key, attempt) -> same delay
        assert delay == policy.delay(attempt, key)


def test_ladder_cap_rung_bounds_every_later_delay():
    """The resolver reuses rung ``cap`` forever: its delay must bound the
    plateau regardless of how high the uncapped ladder would climb."""
    policy = RetryPolicy(base_delay=2.0, max_delay=10_000.0, jitter=0.5)
    cap = 6
    plateau = policy.delay(cap, "some|host|domain")
    assert plateau <= min(2.0 * 2.0 ** cap, 10_000.0)
    assert plateau >= min(2.0 * 2.0 ** cap, 10_000.0) * 0.5


# ----------------------------------------------------------------------
# Counters: merge order independence, delta and resume-replay round trips
# ----------------------------------------------------------------------

COUNTERS = (CrawlHealth, KernelStats, CacheStats)

# dyadic rationals keep float addition exact, so associativity is an
# equality (not an approximation) and the property is crisp
_counts = st.integers(0, 1000)
_seconds = st.integers(0, 4000).map(lambda i: i / 4)
_tallies = st.dictionaries(
    st.sampled_from(["timeout", "connection_reset", "http_error",
                     "slow_response", "backend_flap"]),
    st.integers(1, 50), max_size=4)


def counters(cls):
    """Instances of one :class:`Counters` subclass, drawn per field."""
    defaults = cls()
    strategies = {}
    for spec in dataclasses.fields(cls):
        default = getattr(defaults, spec.name)
        if isinstance(default, dict):
            strategies[spec.name] = _tallies.map(type(default))
        elif isinstance(default, float):
            strategies[spec.name] = _seconds
        else:
            strategies[spec.name] = _counts
    return st.builds(cls, **strategies)


def same_class(n):
    """``n`` instances of one randomly chosen Counters subclass."""
    return st.sampled_from(COUNTERS).flatmap(
        lambda cls: st.tuples(*[counters(cls)] * n))


def _merged(*parts: Counters) -> Counters:
    total = type(parts[0])()
    for part in parts:
        total.merge(part)
    return total


def test_every_counters_subclass_is_covered():
    assert set(Counters.__subclasses__()) == set(COUNTERS)


@given(same_class(2))
@settings(max_examples=100, deadline=None)
def test_merge_commutes(pair):
    a, b = pair
    assert _merged(a, b) == _merged(b, a)


@given(same_class(3))
@settings(max_examples=100, deadline=None)
def test_merge_associates(triple):
    a, b, c = triple
    assert _merged(_merged(a, b), c) == _merged(a, _merged(b, c))


@given(same_class(1))
@settings(max_examples=50, deadline=None)
def test_merge_identity(single):
    (a,) = single
    assert _merged(a, type(a)()) == _merged(a) == a
    merged_none = a.copy()
    merged_none.merge(None)
    assert merged_none == a


@given(same_class(2))
@settings(max_examples=100, deadline=None)
def test_delta_round_trip(pair):
    """Counters only grow, so ``after`` is ``before`` plus more; the
    delta between them merged back onto ``before`` rebuilds ``after``."""
    before, more = pair
    pristine = copy.deepcopy(before)
    after = _merged(before, more)
    rebuilt = before.copy()
    rebuilt.merge(after.delta(before))
    assert rebuilt == after
    assert before == pristine   # copy() shares no mapping with its source


@given(same_class(1))
@settings(max_examples=100, deadline=None)
def test_state_dict_round_trip(single):
    """The stage runner's resume replay: apply_delta(state_dict())
    rebuilds the same counters through a JSON manifest."""
    (a,) = single
    clone = type(a)()
    clone.apply_delta(json.loads(json.dumps(a.state_dict())))
    assert clone == a
    assert clone.state_dict() == a.state_dict()
