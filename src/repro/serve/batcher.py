"""Deterministic request micro-batching.

One scalar ``classify_domain`` call costs roughly as much Python
dispatch as a whole vectorized batch, so the serving front coalesces
pending lookups: a batch opens at its first request's arrival, admits
requests until either it holds ``max_batch`` of them or an arrival
lands past ``first_arrival + max_delay``, and dispatches at whichever
bound closed it.  Arrivals are sim-clock timestamps, so the plan — and
therefore batch membership, dispatch times, and the negative cache's
TTL arithmetic downstream — is a pure function of the request stream
and the two knobs.  Per-request latency is ``dispatch - arrival`` plus
any wait for the previous batch to finish plus service time: the classic
batching trade the bench's p50/p99 columns make visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple


@dataclass(frozen=True)
class Batch:
    """One dispatch unit: names in arrival order + their timestamps."""

    dispatch_at: float
    names: Tuple[str, ...]
    arrivals: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.names)


def plan_batches(requests: Iterable[Tuple[float, str]], max_batch: int,
                 max_delay: float) -> List[Batch]:
    """Coalesce an arrival-ordered ``(timestamp, name)`` stream.

    ``max_batch=1`` degenerates to unbatched serving (every request its
    own dispatch); ``max_delay=0`` still merges requests sharing one
    arrival instant.  Raises on a stream that goes backwards in time —
    the plan's determinism depends on arrival order.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if max_delay < 0:
        raise ValueError("max_delay must be >= 0")
    batches: List[Batch] = []
    names: List[str] = []
    arrivals: List[float] = []
    deadline = 0.0
    last_arrival = float("-inf")

    def flush(dispatch_at: float) -> None:
        batches.append(Batch(dispatch_at=dispatch_at, names=tuple(names),
                             arrivals=tuple(arrivals)))
        names.clear()
        arrivals.clear()

    for arrival, name in requests:
        arrival = float(arrival)
        if arrival < last_arrival:
            raise ValueError(
                f"request stream is not arrival-ordered at {name!r}")
        last_arrival = arrival
        if names and arrival > deadline:
            # the open batch timed out before this arrival: it left at
            # its deadline
            flush(deadline)
        if not names:
            deadline = arrival + max_delay
        names.append(name)
        arrivals.append(arrival)
        if len(names) >= max_batch:
            flush(arrival)
    if names:
        flush(deadline)
    return batches
