"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.features.embedding import EmbeddingConfig


@dataclass
class PipelineConfig:
    """Knobs for one SquatPhi run."""

    # classification
    classifier: str = "random_forest"   # random_forest | knn | naive_bayes
    decision_threshold: float = 0.5
    cv_folds: int = 10
    rf_trees: int = 30
    rf_max_depth: int = 14
    knn_k: int = 5
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)

    # crawl: ``crawl_workers`` is the modelled scheduler width (the
    # paper's browser instances).  Domain groups always run in order on
    # one thread, so it sets only worker ids and per-worker job counts.
    crawl_workers: int = 20
    snapshots: int = 4
    # Persist a partial crawl checkpoint to the artifact store every N
    # completed jobs (None = only on explicit interruption).  Purely an
    # execution knob: slicing a crawl never changes its snapshot digest,
    # so it is deliberately excluded from stage config slices.
    checkpoint_interval: Optional[int] = None

    # execution engine (repro.perf): process-pool widths for the snapshot
    # scan, forest/CV training, and feature extraction, plus the
    # content-addressed render/OCR/feature cache.  None of these knobs can
    # change results — see DESIGN.md's determinism contract — only how
    # fast they are produced.
    scan_workers: int = 1
    train_workers: int = 1
    extract_workers: int = 1
    # bulk-enrichment resolver (repro.enrich): in-flight concurrency and
    # straggler hedging.  Both are pure throughput knobs — the resolver's
    # table is byte-identical to the serial oracle at any setting.
    enrich_workers: int = 8
    enrich_hedging: bool = True
    capture_cache: bool = True

    # failure model & resilience (§3.2's crawl-stability fight): the fault
    # plan injects typed, seeded infrastructure failures into the measured
    # world; the remaining knobs shape how the measurement system absorbs
    # them.  ``fault_plan=None`` keeps the world perfectly reliable.
    fault_plan: Optional[FaultPlan] = None
    crawl_max_retries: int = 2
    backoff_base_delay: float = 1.0
    backoff_max_delay: float = 60.0
    backoff_jitter: float = 0.5
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 300.0

    # verification oracle: the "manual examination" step of §6.1.  A small
    # reviewer error rate keeps the oracle honest (humans mislabel too).
    # "expert" = one careful reviewer per domain; "crowd" = a §7-style
    # crowdsourced queue with majority voting.
    verification_mode: str = "expert"
    reviewer_error_rate: float = 0.005
    crowd_size: int = 9
    crowd_votes_per_item: int = 3
    verification_seed: int = 97

    # ground-truth annotation noise (§4.1/§5.3): labels come from
    # crowdsourced reports plus screenshot-based manual review, both
    # imperfect — the paper itself finds 57% of "verified" PhishTank URLs
    # were no longer phishing.  Residual error after their relabeling:
    phish_mislabel_rate: float = 0.08   # true phishing annotated benign
    benign_mislabel_rate: float = 0.015  # true benign annotated phishing
    annotation_seed: int = 311

    # feature extraction
    use_ocr: bool = True
    use_spellcheck: bool = True
    ocr_error_rate: float = 0.03

    def __post_init__(self) -> None:
        for name in ("scan_workers", "crawl_workers", "train_workers",
                     "extract_workers", "enrich_workers"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
