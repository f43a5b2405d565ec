"""Atomic snapshot-generation publishing.

A publish directory holds generation-stamped PZON files plus a
``CURRENT`` pointer file; both go through the one write path with
fsync (``write_atomic(..., durable=True)``, whose only caller this is),
so a reader polling :meth:`SnapshotPublisher.current` sees either the
old complete generation or the new complete generation, never a torn
state, even across a power loss.  The serving
front hot-reloads by comparing the polled generation number against its
engine's — the stamp inside the PZON meta (see
:func:`~repro.dns.packedzone.stamp_generation`) makes the handle
self-describing, so a reader that mmaps the file late still knows which
generation is answering.

The streaming path extends the pointer to a *chain*: one tab-separated
line ``generation<TAB>base<TAB>delta1<TAB>...``.  :meth:`current` keeps
returning the first two fields (pre-streaming readers see the base);
chain-aware readers call :meth:`current_chain` and open the union with
:func:`~repro.dns.deltazone.load_chain`, which compacts it into one
snapshot.  :meth:`publish_delta`
appends one delta segment and bumps the generation; :meth:`publish`
resets the chain to a lone base (a compaction boundary).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.dns.packedzone import PackedZone, stamp_generation
from repro.durable import write_atomic

PathLike = Union[str, Path]

_CURRENT = "CURRENT"


class SnapshotPublisher:
    """Publishes snapshots into a directory as numbered generations."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def current(self) -> Optional[Tuple[int, Path]]:
        """(generation, base snapshot path) of the live pointer, or None."""
        chain = self.current_chain()
        return None if chain is None else (chain[0], chain[1])

    def current_chain(self) -> Optional[Tuple[int, Path, List[Path]]]:
        """(generation, base path, ordered delta paths), or None."""
        pointer = self.root / _CURRENT
        try:
            text = pointer.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return None
        fields = text.split("\t")
        return (int(fields[0]), self.root / fields[1],
                [self.root / name for name in fields[2:]])

    def open_current(self) -> Optional[PackedZone]:
        """mmap the live generation's base, or None before any publish."""
        state = self.current()
        return None if state is None else PackedZone.load(state[1])

    # ------------------------------------------------------------------
    def publish(self, zone: PackedZone) -> Tuple[int, Path]:
        """Stamp ``zone`` as the next generation and swap it live.

        The data file lands first (one durable ``write_atomic``), the
        pointer swaps second — so a crash between the two leaves the old
        generation live and an orphaned-but-complete data file, never a
        pointer to a partial snapshot.  Any delta chain is reset: the new
        pointer names the base alone (this is the compaction boundary).
        """
        state = self.current()
        generation = (state[0] if state else 0) + 1
        stamped = stamp_generation(zone, generation)
        name = f"gen-{generation:06d}.pzon"
        path = write_atomic(self.root / name, stamped.to_bytes(), durable=True)
        write_atomic(self.root / _CURRENT,
                     f"{generation}\t{name}\n".encode("utf-8"), durable=True)
        return generation, path

    def publish_delta(self, segment_bytes: bytes) -> Tuple[int, Path]:
        """Append one delta segment to the live chain and bump generation.

        ``segment_bytes`` is a sealed delta-segment file (see
        :class:`~repro.dns.deltazone.DeltaSegmentBuilder`).  The segment
        is stamped with the new generation so late-mmapping readers can
        self-identify, then the pointer grows one more chain entry.
        Requires a published base (the chain needs something to hang off).
        """
        chain = self.current_chain()
        if chain is None:
            raise ValueError("publish_delta requires a published base")
        generation, base_path, delta_paths = chain
        generation += 1
        stamped = stamp_generation(
            PackedZone.from_bytes(segment_bytes), generation)
        name = f"gen-{generation:06d}.delta.pzon"
        path = write_atomic(self.root / name, stamped.to_bytes(), durable=True)
        names = [base_path.name] + [p.name for p in delta_paths] + [name]
        pointer = "\t".join([str(generation)] + names) + "\n"
        write_atomic(self.root / _CURRENT, pointer.encode("utf-8"),
                     durable=True)
        return generation, path
