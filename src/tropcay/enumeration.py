"""Exhaustive enumeration of regular triangulations up to symmetry.

Breadth-first search over the bistellar flip graph, starting from the
placing triangulation.  Connectivity of the flip graph restricted to
regular triangulations (secondary polytope theory) makes the search
exhaustive; as a safety net, ``verify_closure`` re-checks at desk scale
that every regular neighbor of an emitted class was seen.

Each discovered triangulation is reduced to its canonical orbit
representative; a class is regularity-checked exactly once.  Expansion
always walks every regular class; the unimodular/full filters restrict
emission only.  The visited set, frontier, and counters can be written to
a self-describing JSON checkpoint and resumed later; fresh and resumed
runs produce the same emission set.

With ``jobs > 1`` the search runs in waves: worker processes expand
frontier nodes and regularity-check fresh classes, the parent process
deduplicates and emits.  Output is deterministic as a set (emission order
may vary between runs and job counts).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import CheckpointMismatchError
from .formats import FORMAT_CHECKPOINT, config_from_dict, config_to_dict
from .geometry import PointConfiguration
from .triangulation import (
    RelabelContext,
    SymmetryGroup,
    Triangulation,
    flip_engine,
    placing_triangulation,
)

DEFAULT_CHECKPOINT_EVERY = 10000


@dataclass(frozen=True)
class EnumerationFilters:
    """Which triangulations are emitted (the search always walks regular ones)."""

    require_regular: bool = True
    require_unimodular: bool = False
    require_full: bool = False

    def __post_init__(self):
        if not self.require_regular:
            raise ValueError(
                "require_regular must stay True: flip connectivity is only "
                "guaranteed across regular triangulations"
            )

    def to_dict(self) -> dict:
        return {
            "require_regular": self.require_regular,
            "require_unimodular": self.require_unimodular,
            "require_full": self.require_full,
        }

    @classmethod
    def from_dict(cls, doc) -> "EnumerationFilters":
        return cls(
            bool(doc["require_regular"]),
            bool(doc["require_unimodular"]),
            bool(doc["require_full"]),
        )


def _run_digest(config: PointConfiguration, group: SymmetryGroup, filters: EnumerationFilters) -> str:
    payload = json.dumps(
        {
            "config": config_to_dict(config),
            "group": [list(g) for g in group.elements],
            "filters": filters.to_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class _Codec:
    """Packs a sorted mask tuple into bytes (fixed width per mask)."""

    def __init__(self, npoints: int):
        self.width = (npoints + 7) // 8

    def pack(self, masks) -> bytes:
        w = self.width
        return b"".join(m.to_bytes(w, "big") for m in masks)

    def unpack(self, blob: bytes):
        w = self.width
        return tuple(int.from_bytes(blob[i : i + w], "big") for i in range(0, len(blob), w))


class Enumerator:
    """Flip-graph BFS emitting one canonical representative per orbit."""

    def __init__(
        self,
        config: PointConfiguration,
        group: SymmetryGroup,
        filters: EnumerationFilters = EnumerationFilters(),
        jobs: int = 1,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
        regularity_mode: str = "local",
        placing_order=None,
    ):
        if group.configuration.points != config.points:
            raise ValueError("symmetry group belongs to a different configuration")
        self.config = config
        self.group = group
        self.filters = filters
        self.jobs = max(1, int(jobs))
        self.checkpoint_path = checkpoint_path
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self.checkpoint_every = max(1, checkpoint_every)
        self.regularity_mode = regularity_mode
        self.placing_order = list(placing_order) if placing_order is not None else None
        self.engine = flip_engine(config)
        self.codec = _Codec(self.engine.n)
        self.relabel_context = RelabelContext(self.engine, group.elements)
        self.digest = _run_digest(config, group, filters)

        self.visited: dict[bytes, bool] = {}
        self.frontier: deque[bytes] = deque()
        self.emitted = 0
        self.expanded = 0
        self.complete = False
        self._seeded = False
        self._stop = False
        self._last_checkpoint_emitted = 0

    # -- basic helpers ---------------------------------------------------

    def _canonical_key(self, masks) -> bytes:
        return self.codec.pack(self.relabel_context.canonical(masks))

    def _passes_filters(self, masks) -> bool:
        if self.filters.require_unimodular and not self.engine.is_unimodular(masks):
            return False
        if self.filters.require_full and not self.engine.is_full(masks):
            return False
        return True

    def _regular(self, masks) -> bool:
        return self.engine.is_regular(masks, mode=self.regularity_mode) is not None

    def request_stop(self) -> None:
        """Ask the run loop to halt at the next safe point (checkpointing)."""
        self._stop = True

    def stats(self) -> dict:
        return {
            "visited": len(self.visited),
            "regular": sum(1 for v in self.visited.values() if v),
            "emitted": self.emitted,
            "expanded": self.expanded,
            "frontier": len(self.frontier),
            "complete": self.complete,
        }

    # -- search ----------------------------------------------------------

    def _seed(self):
        seed = placing_triangulation(self.config, self.placing_order)
        masks = self.engine.to_masks(seed.cells)
        key = self._canonical_key(masks)
        regular = self._regular(self.codec.unpack(key))
        assert regular, "placing triangulation must be regular"
        self.visited[key] = True
        self.frontier.append(key)
        self._seeded = True
        if self._passes_filters(self.codec.unpack(key)):
            self.emitted += 1
            return [key]
        return []

    def run(self, limit: int | None = None) -> Iterator[Triangulation]:
        """Generate canonical representatives; stops at ``limit`` emissions.

        The stream may be halted and resumed from a checkpoint; the union
        of emissions equals an uninterrupted run's emissions as a set.
        """
        self._stop = False
        if not self._seeded and not self.complete:
            for key in self._seed():
                yield self._to_triangulation(key)
                if limit is not None and self.emitted >= limit:
                    self._write_checkpoint()
                    return
        if self.jobs == 1:
            yield from self._run_serial(limit)
        else:
            yield from self._run_parallel(limit)

    def _to_triangulation(self, key: bytes) -> Triangulation:
        return self.engine.triangulation(self.codec.unpack(key))

    def _run_serial(self, limit) -> Iterator[Triangulation]:
        engine = self.engine
        while self.frontier:
            if self._stop or (limit is not None and self.emitted >= limit):
                self._write_checkpoint()
                return
            node = self.frontier.popleft()
            fresh: list[bytes] = []
            for _flip, nb in engine.neighbors(self.codec.unpack(node)):
                key = self._canonical_key(nb)
                if key in self.visited:
                    continue
                regular = self._regular(self.codec.unpack(key))
                self.visited[key] = regular
                if regular:
                    self.frontier.append(key)
                    if self._passes_filters(self.codec.unpack(key)):
                        self.emitted += 1
                        fresh.append(key)
            self.expanded += 1
            for key in fresh:
                yield self._to_triangulation(key)
            self._maybe_checkpoint()
        self.complete = True
        self._write_checkpoint()

    def _run_parallel(self, limit) -> Iterator[Triangulation]:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_worker_init,
            initargs=(
                config_to_dict(self.config),
                [list(g) for g in self.group.elements],
                self.regularity_mode,
            ),
        ) as pool:
            while self.frontier:
                if self._stop or (limit is not None and self.emitted >= limit):
                    self._write_checkpoint()
                    return
                wave = []
                wave_budget = max(64, self.jobs * 32)
                while self.frontier and len(wave) < wave_budget:
                    wave.append(self.frontier.popleft())
                chunks = _chunked(wave, max(1, len(wave) // (self.jobs * 4) or 1))
                fresh: list[bytes] = []
                seen_in_wave: set[bytes] = set()
                for result in pool.map(_worker_expand, chunks):
                    for key in result:
                        if key in self.visited or key in seen_in_wave:
                            continue
                        seen_in_wave.add(key)
                        fresh.append(key)
                self.expanded += len(wave)
                check_chunks = _chunked(fresh, max(1, len(fresh) // (self.jobs * 4) or 1))
                emitted_now: list[bytes] = []
                for result in pool.map(_worker_regcheck, check_chunks):
                    for key, regular in result:
                        self.visited[key] = regular
                        if regular:
                            self.frontier.append(key)
                            if self._passes_filters(self.codec.unpack(key)):
                                self.emitted += 1
                                emitted_now.append(key)
                for key in emitted_now:
                    yield self._to_triangulation(key)
                self._maybe_checkpoint()
            self.complete = True
            self._write_checkpoint()

    # -- checkpointing -----------------------------------------------------

    def _maybe_checkpoint(self):
        if self.checkpoint_path is None:
            return
        if self.emitted - self._last_checkpoint_emitted >= self.checkpoint_every:
            self._write_checkpoint()

    def _write_checkpoint(self, path=None):
        path = path or self.checkpoint_path
        if path is None:
            return
        doc = {
            "format": FORMAT_CHECKPOINT,
            "digest": self.digest,
            "config": config_to_dict(self.config),
            "group": [list(g) for g in self.group.elements],
            "generators": [list(g) for g in self.group.generators],
            "filters": self.filters.to_dict(),
            "regularity_mode": self.regularity_mode,
            "visited_regular": [
                base64.b64encode(k).decode() for k, v in self.visited.items() if v
            ],
            "visited_nonregular": [
                base64.b64encode(k).decode() for k, v in self.visited.items() if not v
            ],
            "frontier": [base64.b64encode(k).decode() for k in self.frontier],
            "emitted": self.emitted,
            "expanded": self.expanded,
            "complete": self.complete,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._last_checkpoint_emitted = self.emitted

    def write_checkpoint(self, path=None) -> None:
        self._write_checkpoint(path)


def enumerate_triangulations(
    config: PointConfiguration,
    group: SymmetryGroup,
    filters: EnumerationFilters = EnumerationFilters(),
    jobs: int = 1,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    limit: int | None = None,
    regularity_mode: str = "local",
) -> Iterator[Triangulation]:
    """One canonical representative per symmetry class of regular
    triangulations (optionally filtered to unimodular and/or full)."""
    enumerator = Enumerator(
        config,
        group,
        filters,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        regularity_mode=regularity_mode,
    )
    yield from enumerator.run(limit)


def load_checkpoint(
    path,
    config: PointConfiguration | None = None,
    jobs: int = 1,
    checkpoint_every: int | None = None,
) -> Enumerator:
    """Rebuild an Enumerator from a checkpoint file (digest-verified)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT_CHECKPOINT:
        raise CheckpointMismatchError(f"not a checkpoint file: {path}")
    stored_config = config_from_dict(doc["config"])
    filters = EnumerationFilters.from_dict(doc["filters"])
    group = SymmetryGroup(
        stored_config,
        tuple(tuple(g) for g in doc["generators"]),
        tuple(sorted(tuple(g) for g in doc["group"])),
    )
    digest = _run_digest(stored_config, group, filters)
    if digest != doc["digest"]:
        raise CheckpointMismatchError("checkpoint digest does not match its own contents")
    if config is not None and config.points != stored_config.points:
        raise CheckpointMismatchError("checkpoint was written for a different configuration")
    enumerator = Enumerator(
        stored_config,
        group,
        filters,
        jobs=jobs,
        checkpoint_path=path,
        checkpoint_every=checkpoint_every,
        regularity_mode=doc.get("regularity_mode", "local"),
    )
    for b64 in doc["visited_regular"]:
        enumerator.visited[base64.b64decode(b64)] = True
    for b64 in doc["visited_nonregular"]:
        enumerator.visited[base64.b64decode(b64)] = False
    enumerator.frontier = deque(base64.b64decode(b64) for b64 in doc["frontier"])
    enumerator.emitted = int(doc["emitted"])
    enumerator.expanded = int(doc["expanded"])
    enumerator.complete = bool(doc["complete"])
    enumerator._seeded = True
    enumerator._last_checkpoint_emitted = enumerator.emitted
    return enumerator


def resume(
    path,
    config: PointConfiguration | None = None,
    jobs: int = 1,
    checkpoint_every: int | None = None,
) -> Iterator[Triangulation]:
    """Continue emission from a checkpoint: only classes not yet seen are
    emitted, and the union with the pre-halt emissions equals a fresh run."""
    enumerator = load_checkpoint(path, config=config, jobs=jobs, checkpoint_every=checkpoint_every)
    yield from enumerator.run()


def verify_closure(enumerator: Enumerator) -> bool:
    """Desk-scale safety check: after completion, every regular neighbor of
    every regular class must already be in the visited set."""
    if not enumerator.complete:
        raise ValueError("closure check requires a completed enumeration")
    engine = enumerator.engine
    for key, regular in list(enumerator.visited.items()):
        if not regular:
            continue
        for _flip, nb in engine.neighbors(enumerator.codec.unpack(key)):
            if enumerator._canonical_key(nb) not in enumerator.visited:
                return False
    return True


def _chunked(items, size):
    if not items:
        return []
    return [items[i : i + size] for i in range(0, len(items), size)]


# -- worker-process side ------------------------------------------------

_W = {}


def _worker_init(config_doc, group_elements, regularity_mode):
    config = config_from_dict(config_doc)
    engine = flip_engine(config)
    _W["engine"] = engine
    _W["codec"] = _Codec(engine.n)
    _W["context"] = RelabelContext(engine, [tuple(g) for g in group_elements])
    _W["mode"] = regularity_mode


def _worker_expand(keys):
    engine = _W["engine"]
    codec = _W["codec"]
    context = _W["context"]
    out = []
    for key in keys:
        for _flip, nb in engine.neighbors(codec.unpack(key)):
            out.append(codec.pack(context.canonical(nb)))
    return out


def _worker_regcheck(keys):
    engine = _W["engine"]
    codec = _W["codec"]
    mode = _W["mode"]
    return [
        (key, engine.is_regular(codec.unpack(key), mode=mode) is not None)
        for key in keys
    ]
