"""Disk-backed artifact store + run manifests (whole-run persistence).

The store gives a pipeline run three kinds of durability:

* **objects/** — content-addressed artifact payloads, one pickle per
  digest.  Two runs producing the same bytes share one object, so a store
  accumulating weekly snapshots only pays for what changed.
* **runs/** — one JSON :class:`RunManifest` per run id, recording every
  stage's fingerprint (code, config slice, input digests), its output
  digests, wall-clock seconds, whether it was served from cache, and the
  accounting deltas (crawl health, injected faults, simulated clock) the
  runner replays when it loads the stage from cache instead of running it.
* **partials/** — mid-stage progress, i.e. the crawler's
  :class:`~repro.web.crawler.CrawlCheckpoint` folded into the store as a
  *partial stage artifact*: a killed crawl resumes from its last
  checkpoint slice rather than from the start of the stage.  A partial is
  bound to the stage fingerprint that produced it, so a config change
  discards stale progress instead of resuming into the wrong run.

``ArtifactStore(None)`` is a fully in-memory store with the same API —
the default for library callers who just want incremental semantics
within one process (tests, notebooks), holding the bytes a disk store
would write.  On disk every file lands through
:func:`~repro.durable.write_atomic` without fsync: a kill never leaves a
torn file, and a durable write (~0.45 ms on the 2-core reference VM)
would fall five times inside every on-disk stream segment for state
that can always be recomputed.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durable import write_atomic
from repro.stages.artifacts import Artifact

PathLike = Union[str, Path]


@dataclass
class StageRecord:
    """What one stage did in one run (a manifest row)."""

    stage: str
    status: str = "complete"
    fingerprint: Dict[str, str] = field(default_factory=dict)
    outputs: Dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0
    cached: bool = False
    health_delta: Dict[str, Any] = field(default_factory=dict)
    injected_delta: Dict[str, int] = field(default_factory=dict)
    clock_delta: float = 0.0


@dataclass
class RunManifest:
    """Everything needed to resume or incrementally re-execute one run."""

    run_id: str
    context_digest: str = ""
    records: Dict[str, StageRecord] = field(default_factory=dict)

    def record(self, stage: str) -> Optional[StageRecord]:
        return self.records.get(stage)

    def cached_stages(self) -> List[str]:
        """Stages this run served from the store instead of executing."""
        return [name for name, rec in self.records.items() if rec.cached]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "context_digest": self.context_digest,
            "records": {name: asdict(rec) for name, rec in self.records.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        manifest = cls(run_id=data["run_id"],
                       context_digest=data.get("context_digest", ""))
        for name, raw in data.get("records", {}).items():
            manifest.records[name] = StageRecord(**raw)
        return manifest


class ArtifactStore:
    """Content-addressed payloads + run manifests + partial stage state.

    Every public method sits on five byte primitives keyed by a path
    relative to the root (``objects/ab/<digest>.pkl``, ``runs/<id>.json``,
    ``partials/<id>/<stage>.pkl``): a dict in memory, files on disk.

    Args:
        root: store directory (created on demand).  ``None`` keeps
            everything in memory — identical bytes, no durability.
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root) if root is not None else None
        self._blobs: Dict[str, bytes] = {}

    # ------------------------------------------------------------------
    # byte primitives
    # ------------------------------------------------------------------
    def _read(self, key: str) -> Optional[bytes]:
        if self.root is None:
            return self._blobs.get(key)
        try:
            return (self.root / key).read_bytes()
        except FileNotFoundError:
            return None

    def _write(self, key: str, data: bytes) -> None:
        if self.root is None:
            self._blobs[key] = data
        else:
            write_atomic(self.root / key, data)

    def _exists(self, key: str) -> bool:
        if self.root is None:
            return key in self._blobs
        return (self.root / key).exists()

    def _delete(self, key: str) -> None:
        if self.root is None:
            self._blobs.pop(key, None)
        else:
            (self.root / key).unlink(missing_ok=True)

    def _names(self, directory: str) -> List[str]:
        """File names directly under ``directory`` (a flat one)."""
        if self.root is None:
            prefix = directory + "/"
            return [k[len(prefix):] for k in self._blobs if k.startswith(prefix)]
        folder = self.root / directory
        return [p.name for p in folder.iterdir()] if folder.is_dir() else []

    # ------------------------------------------------------------------
    # object layer
    # ------------------------------------------------------------------
    @staticmethod
    def _object_key(digest: str) -> str:
        return f"objects/{digest[:2]}/{digest}.pkl"

    def put(self, artifact: Artifact) -> None:
        """Store an artifact payload under its digest (idempotent)."""
        if self.has(artifact.digest):
            return
        data = pickle.dumps(artifact.payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._write(self._object_key(artifact.digest), data)

    def has(self, digest: str) -> bool:
        return self._exists(self._object_key(digest))

    def get(self, digest: str) -> Any:
        """Load the payload stored under ``digest`` (KeyError if absent)."""
        data = self._read(self._object_key(digest))
        if data is None:
            raise KeyError(f"no artifact {digest!r} in store")
        return pickle.loads(data)

    # ------------------------------------------------------------------
    # run manifests
    # ------------------------------------------------------------------
    def save_manifest(self, manifest: RunManifest) -> None:
        payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
        self._write(f"runs/{manifest.run_id}.json", payload.encode("utf-8"))

    def load_manifest(self, run_id: str) -> RunManifest:
        data = self._read(f"runs/{run_id}.json")
        if data is None:
            raise KeyError(f"no run {run_id!r} in store")
        return RunManifest.from_dict(json.loads(data.decode("utf-8")))

    def list_runs(self) -> List[str]:
        return sorted(name[:-len(".json")] for name in self._names("runs")
                      if name.endswith(".json"))

    def next_run_id(self) -> str:
        """A fresh, collision-free ``run-NNNN`` id."""
        existing = set(self.list_runs())
        index = len(existing) + 1
        while f"run-{index:04d}" in existing:
            index += 1
        return f"run-{index:04d}"

    # ------------------------------------------------------------------
    # partial stage state (folded CrawlCheckpoint)
    # ------------------------------------------------------------------
    def save_partial(self, run_id: str, stage: str,
                     fingerprint: Dict[str, str], payload: Any) -> None:
        """Persist mid-stage progress bound to the stage fingerprint."""
        data = pickle.dumps({"fingerprint": dict(fingerprint),
                             "payload": payload},
                            protocol=pickle.HIGHEST_PROTOCOL)
        self._write(f"partials/{run_id}/{stage}.pkl", data)

    def load_partial(self, run_id: str, stage: str,
                     fingerprint: Dict[str, str]) -> Optional[Any]:
        """Mid-stage progress for a matching fingerprint, else None."""
        data = self._read(f"partials/{run_id}/{stage}.pkl")
        if data is None:
            return None
        entry = pickle.loads(data)
        if entry["fingerprint"] != dict(fingerprint):
            return None     # config/code/inputs moved on; progress is stale
        return entry["payload"]

    def clear_partial(self, run_id: str, stage: str) -> None:
        self._delete(f"partials/{run_id}/{stage}.pkl")
