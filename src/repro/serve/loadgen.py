"""Deterministic query-load synthesis for serving benches and harnesses.

Real verdict traffic is repetitive (the same suspicious names get
checked again and again) and dominated by benign/never-registered
domains.  :func:`synth_requests` models that: a bounded name pool mixing
registered names, known squats, and synthesized never-registered names
is sampled with replacement — the repetition is what gives the negative
cache real traffic — under Poisson arrivals at a target QPS on the sim
clock.  Everything is a pure function of the seed, so a request stream
replays identically across legs and processes.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

_MISS_TLDS = ("xyz", "top", "icu")


def synth_requests(n_queries: int, qps: float, seed: int = 1803,
                   registered: Sequence[str] = (),
                   squats: Sequence[str] = (),
                   miss_rate: float = 0.5, squat_rate: float = 0.05,
                   pool_factor: int = 3) -> List[Tuple[float, str]]:
    """An arrival-ordered ``(timestamp, name)`` stream.

    The pool holds ``n_queries // pool_factor`` unique names (so each is
    queried ~``pool_factor`` times on average): ``squat_rate`` of them
    drawn from ``squats``, ``miss_rate`` synthesized never-registered
    names (20-hex-digit labels under throwaway TLDs), the rest from
    ``registered``.  Empty source sequences shift their share onto the
    synthesized misses.
    """
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    if qps <= 0:
        raise ValueError("qps must be positive")
    rng = np.random.default_rng(seed)
    n_pool = max(1, n_queries // max(pool_factor, 1))
    n_squat = int(round(n_pool * squat_rate)) if len(squats) else 0
    n_reg = int(round(n_pool * (1.0 - miss_rate - squat_rate))) \
        if len(registered) else 0
    pool: List[str] = []
    if n_squat:
        pool.extend(squats[int(i)]
                    for i in rng.integers(0, len(squats), n_squat))
    if n_reg:
        pool.extend(registered[int(i)]
                    for i in rng.integers(0, len(registered), n_reg))
    while len(pool) < n_pool:
        label = "".join(f"{b:02x}" for b in rng.integers(0, 256, 10))
        tld = _MISS_TLDS[int(rng.integers(0, len(_MISS_TLDS)))]
        pool.append(f"{label}.{tld}")
    picks = rng.integers(0, len(pool), n_queries)
    arrivals = np.cumsum(rng.exponential(1.0 / qps, n_queries))
    return [(float(at), pool[int(pick)])
            for at, pick in zip(arrivals, picks)]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100); 0.0 on empty input."""
    if not values:
        return 0.0
    data = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return float(data[rank - 1])
