"""Interactive query serving over packed zone snapshots.

The batch pipeline answers "which of the snapshot's domains squat a
brand?" once per snapshot; defenders need the transpose — "is *this*
domain a squat, and why?" — answered continuously and fast.  This
package turns the packed substrate (mmap'd PZON snapshots, the
vectorized scan kernel, columnar enrichment) into that query service:

* :mod:`~repro.serve.engine` — per-process :class:`QueryEngine`
  producing :class:`Verdict` rows byte-identical to the offline
  scan/classify path;
* :mod:`~repro.serve.batcher` — deterministic micro-batching of the
  request stream (``max_batch``/``max_delay`` on the shared sim clock);
* :mod:`~repro.serve.negcache` — TTL'd generation-stamped cache for the
  overwhelmingly-common "not a squat" answer;
* :mod:`~repro.serve.publisher` — atomic snapshot-generation publishing
  for hot reloads;
* :mod:`~repro.serve.server` — the serving front (:func:`serve_load`):
  one loop on one engine, hot-swapping published generations;
* :mod:`~repro.serve.loadgen` — deterministic query-stream synthesis
  for benches and the correctness harness.

See DESIGN.md §13.
"""

from repro.serve.batcher import Batch, plan_batches
from repro.serve.engine import (QueryEngine, Verdict, digest_verdicts,
                                offline_verdicts, verdict_line)
from repro.serve.loadgen import percentile, synth_requests
from repro.serve.negcache import NegativeVerdictCache
from repro.serve.publisher import SnapshotPublisher
from repro.serve.server import ServeStats, serve_load

__all__ = [
    "Batch",
    "NegativeVerdictCache",
    "QueryEngine",
    "ServeStats",
    "SnapshotPublisher",
    "Verdict",
    "digest_verdicts",
    "offline_verdicts",
    "percentile",
    "plan_batches",
    "serve_load",
    "synth_requests",
    "verdict_line",
]
