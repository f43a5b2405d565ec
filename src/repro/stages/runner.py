"""Topological stage execution with checkpointing and incremental re-runs.

:class:`StageRunner` walks a :class:`~repro.stages.graph.StageGraph` in
topological order and, for each stage, decides between two paths:

* **execute** — run ``stage.compute`` with wall-clock charged to the
  shared :class:`~repro.perf.report.PerfReport` under the stage's name
  (every stage, uniformly — no hand-rolled ``perf_counter`` pairs), then
  digest and store its outputs;
* **load** — when resuming a previous run whose manifest holds a
  completed record with an identical *fingerprint* (code digest + config
  slice digest + input artifact digests) and the store still has all the
  output objects, skip execution and load the artifacts instead,
  replaying the stage's recorded accounting deltas (crawl health,
  injected-fault tallies, simulated-clock advance) so downstream stages
  observe exactly the state a fresh serial run would have produced.

That replay is what keeps the PR-2 determinism contract across
persistence: a resumed or incrementally re-executed pipeline yields
byte-identical crawl digests and identical verified sets, because cached
stages are indistinguishable — to everything downstream — from stages
that actually ran.

``from_stage`` forces a stage and its whole downstream closure to
re-execute (the CLI's ``--from-stage``); ``stop_after`` ends the walk
early after a named stage, which is how tests and the CI cli-smoke job
simulate a killed process at stage granularity (mid-*crawl* kills are
covered by the store's partial checkpoints instead).
"""

from __future__ import annotations

import hashlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.stages.artifacts import Artifact, derived_digest
from repro.stages.graph import Stage, StageGraph
from repro.stages.store import ArtifactStore, RunManifest, StageRecord


def code_digest(fn: Any) -> str:
    """Fingerprint a stage's implementation by its source text.

    Editing stage code invalidates its cached artifacts; when source is
    unavailable (REPL lambdas, C extensions) the qualified name stands in,
    trading edit-sensitivity for availability.
    """
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = getattr(fn, "__qualname__", repr(fn))
    return hashlib.sha256(source.encode("utf-8", "surrogatepass")).hexdigest()


#: Pure throughput knobs: the determinism contract guarantees none of
#: them can change an artifact byte, so none of them may appear in a
#: stage's config slice — changing ``--train-workers`` must never
#: invalidate a stored stage.  ``config_slice_digest`` enforces this.
THROUGHPUT_FIELDS = frozenset({
    "scan_workers", "crawl_workers", "train_workers", "extract_workers",
    "enrich_workers", "enrich_hedging",
    "capture_cache", "checkpoint_interval",
})


def config_slice_digest(config: Any, fields: Iterable[str]) -> str:
    """Digest of the named config fields' reprs (sorted by field name)."""
    names = sorted(fields)
    banned = THROUGHPUT_FIELDS.intersection(names)
    if banned:
        raise ValueError(
            f"throughput knobs cannot enter a stage fingerprint: {sorted(banned)}")
    parts = [f"{name}={getattr(config, name)!r}" for name in names]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@dataclass
class StageContext:
    """Per-stage handle the runner passes into ``compute``.

    Exposes the store's partial-checkpoint slots bound to this run,
    stage, and fingerprint — the fold-in point for the crawler's
    ``CrawlCheckpoint``.
    """

    store: ArtifactStore
    run_id: str
    stage: str
    fingerprint: Dict[str, str]

    def partial(self) -> Optional[Any]:
        """Mid-stage progress from an interrupted prior attempt, if any."""
        return self.store.load_partial(self.run_id, self.stage, self.fingerprint)

    def save_partial(self, payload: Any) -> None:
        self.store.save_partial(self.run_id, self.stage, self.fingerprint, payload)

    def clear_partial(self) -> None:
        self.store.clear_partial(self.run_id, self.stage)


@dataclass
class RunOutcome:
    """What a runner walk produced."""

    artifacts: Dict[str, Artifact]
    manifest: RunManifest
    interrupted: bool = False

    def payloads(self) -> Dict[str, Any]:
        return {name: a.payload for name, a in self.artifacts.items()}


@dataclass
class _Accounting:
    """Mutable run-level state stages charge as a side effect.

    The runner snapshots it around each executed stage and stores the
    delta in the manifest; loading the stage from cache replays the delta
    so fresh and resumed runs stay byte-identical downstream.
    """

    health: Optional[Any] = None        # CrawlHealth
    injected: Optional[Any] = None      # Counter of injected faults
    clock: Optional[Any] = None         # SimClock

    # -- capture -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "health": self.health.copy() if self.health is not None else None,
            "injected": Counter(self.injected) if self.injected is not None else None,
            "clock": self.clock.now() if self.clock else None,
        }

    def delta_since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {"health": {}, "injected": {}, "clock": 0.0}
        if self.health is not None:
            out["health"] = self.health.delta(before["health"]).state_dict()
        if self.injected is not None:
            # tallies only grow, so Counter subtraction keeps every change
            out["injected"] = dict(self.injected - before["injected"])
        if self.clock is not None:
            out["clock"] = self.clock.now() - before["clock"]
        return out

    # -- replay --------------------------------------------------------
    def replay(self, health_delta: Dict[str, Any],
               injected_delta: Dict[str, int], clock_delta: float) -> None:
        if self.health is not None and health_delta:
            self.health.apply_delta(health_delta)
        if self.injected is not None and injected_delta:
            self.injected.update(injected_delta)
        if self.clock is not None and clock_delta > 0:
            self.clock.advance_to(self.clock.now() + clock_delta)


class StageRunner:
    """Executes a stage graph against a store, incrementally.

    Args:
        graph: the validated stage graph.
        store: artifact store; ``None`` gets a private in-memory store.
        config: the object stage ``config_fields`` are read from.
        run_id: identifier for this run's manifest (auto-allocated when
            omitted).
        previous: manifest of an earlier run to resume / re-execute
            incrementally; its per-stage fingerprints gate artifact reuse.
        from_stage: force this stage and its downstream closure to
            re-execute regardless of fingerprints.
        perf: :class:`~repro.perf.report.PerfReport` charged with every
            executed stage's wall clock (and told about cache-loaded
            stages).
        health / injected / clock: run-level accounting replayed across
            cache loads (see :class:`_Accounting`).
        context_digest: guards against resuming a manifest produced
            against a different world/config universe.
    """

    def __init__(
        self,
        graph: StageGraph,
        store: Optional[ArtifactStore] = None,
        config: Any = None,
        run_id: Optional[str] = None,
        previous: Optional[RunManifest] = None,
        from_stage: Optional[str] = None,
        perf: Any = None,
        health: Any = None,
        injected: Any = None,
        clock: Any = None,
        context_digest: str = "",
    ) -> None:
        self.graph = graph
        self.store = store if store is not None else ArtifactStore()
        self.config = config
        self.perf = perf
        self.accounting = _Accounting(health=health, injected=injected,
                                      clock=clock)
        self.previous = previous
        self.context_digest = context_digest
        if previous is not None and previous.context_digest \
                and context_digest and previous.context_digest != context_digest:
            raise ValueError(
                f"run {previous.run_id!r} was produced against a different "
                "world/config universe; refusing to resume")
        if from_stage is not None and from_stage not in graph.stages:
            raise ValueError(
                f"unknown stage {from_stage!r}; choose from "
                f"{sorted(graph.stages)}")
        self.forced: Set[str] = (graph.downstream_closure(from_stage)
                                 if from_stage else set())
        self.run_id = run_id or (previous.run_id if previous
                                 else self.store.next_run_id())

    # ------------------------------------------------------------------
    def _fingerprint(self, stage: Stage,
                     inputs: Dict[str, Artifact]) -> Dict[str, str]:
        input_part = "\n".join(
            f"{name}:{inputs[name].digest}" for name in sorted(inputs))
        return {
            "code": code_digest(stage.compute),
            "config": config_slice_digest(self.config, stage.config_fields),
            "inputs": hashlib.sha256(input_part.encode()).hexdigest(),
        }

    def _reusable(self, stage: Stage, fingerprint: Dict[str, str]) -> Optional[StageRecord]:
        """The previous run's record, iff it licenses skipping this stage."""
        if stage.name in self.forced or self.previous is None:
            return None
        record = self.previous.record(stage.name)
        if record is None or record.status != "complete":
            return None
        if record.fingerprint != fingerprint:
            return None
        if set(record.outputs) != set(stage.outputs):
            return None
        if not all(self.store.has(digest) for digest in record.outputs.values()):
            return None
        return record

    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[str] = None) -> RunOutcome:
        """Walk the graph; returns all artifacts plus the saved manifest."""
        if stop_after is not None and stop_after not in self.graph.stages:
            raise ValueError(f"unknown stage {stop_after!r}")
        manifest = RunManifest(run_id=self.run_id,
                               context_digest=self.context_digest)
        artifacts: Dict[str, Artifact] = {}
        for stage in self.graph.topological_order():
            inputs = {name: artifacts[name] for name in stage.inputs}
            fingerprint = self._fingerprint(stage, inputs)
            prior = self._reusable(stage, fingerprint)
            if prior is not None:
                for name, digest in prior.outputs.items():
                    artifacts[name] = Artifact(name=name, digest=digest,
                                               payload=self.store.get(digest))
                self.accounting.replay(prior.health_delta,
                                       prior.injected_delta,
                                       prior.clock_delta)
                if self.perf is not None:
                    self.perf.record_cached_stage(stage.name)
                record = replace(prior, cached=True, seconds=0.0)
            else:
                record = self._execute(stage, inputs, fingerprint, artifacts)
            manifest.records[stage.name] = record
            self.store.save_manifest(manifest)
            if stop_after == stage.name:
                return RunOutcome(artifacts=artifacts, manifest=manifest,
                                  interrupted=True)
        return RunOutcome(artifacts=artifacts, manifest=manifest)

    def _execute(self, stage: Stage, inputs: Dict[str, Artifact],
                 fingerprint: Dict[str, str],
                 artifacts: Dict[str, Artifact]) -> StageRecord:
        """Run one stage for real; digest, store, and account its outputs."""
        ctx = StageContext(store=self.store, run_id=self.run_id,
                           stage=stage.name, fingerprint=fingerprint)
        before = self.accounting.snapshot()
        started = time.perf_counter()
        payloads = {name: artifact.payload for name, artifact in inputs.items()}
        outputs = stage.compute(payloads, ctx)
        seconds = time.perf_counter() - started
        if self.perf is not None:
            self.perf.record_stage(stage.name, seconds)
        missing = set(stage.outputs) - set(outputs)
        if missing:
            raise RuntimeError(
                f"stage {stage.name!r} did not produce {sorted(missing)}")
        deltas = self.accounting.delta_since(before)
        record = StageRecord(
            stage=stage.name,
            status="complete",
            fingerprint=fingerprint,
            seconds=seconds,
            health_delta=deltas["health"],
            injected_delta=deltas["injected"],
            clock_delta=deltas["clock"],
        )
        for name in stage.outputs:
            digester = stage.digesters.get(name)
            digest = (digester(outputs[name]) if digester is not None
                      else derived_digest(fingerprint, name))
            artifact = Artifact(name=name, digest=digest, payload=outputs[name])
            self.store.put(artifact)
            artifacts[name] = artifact
            record.outputs[name] = digest
        ctx.clear_partial()
        return record


def run_keyed(graph: StageGraph, store: ArtifactStore, run_id: str,
              context_digest: str, perf: Any = None,
              clock: Any = None) -> Tuple[RunOutcome, bool]:
    """Run ``graph`` under a caller-chosen ``run_id``, resuming from the
    store's manifest for that id when its context digest still matches.

    The resume recipe shared by keyed per-unit runs (streaming segments,
    dated series snapshots).  Returns ``(outcome, all_cached)``, where
    ``all_cached`` is true when every stage was loaded from the store.
    """
    previous = None
    try:
        candidate = store.load_manifest(run_id)
        if candidate.context_digest == context_digest:
            previous = candidate
    except KeyError:
        pass
    outcome = StageRunner(graph, store=store, run_id=run_id,
                          previous=previous, perf=perf, clock=clock,
                          context_digest=context_digest).run()
    cached = all(record.cached for record in outcome.manifest.records.values())
    return outcome, cached
