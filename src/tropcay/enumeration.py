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

The search is one loop over waves: pop a wave of frontier nodes, expand
it to the canonical keys of all neighbors, drop the keys already visited,
regularity-check the rest and record the verdicts.  With one job a wave
is a single node and both steps run in this process, which gives plain
breadth-first order.  With ``jobs > 1`` a wave holds ``max(64, 32*jobs)``
nodes and the same two steps are mapped over chunks by worker processes,
each holding its own flip engine; this process deduplicates and emits.
Output is deterministic as a set (emission order may vary between job
counts).

A checkpoint carries a SHA-256 digest of its whole document; a file that
is not JSON, lacks a field, fails the digest or has a frontier outside
its visited regular classes is refused with ``CheckpointMismatchError``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
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


class _Walk:
    """Flip engine, key codec and group action of one process: the expand
    and check steps of the search, which worker processes can take over."""

    def __init__(self, config: PointConfiguration, group_elements):
        self.engine = flip_engine(config)
        self.codec = _Codec(self.engine.n)
        self.context = RelabelContext(self.engine, group_elements)

    def key(self, masks) -> bytes:
        return self.codec.pack(self.context.canonical(masks))

    def expand(self, keys) -> list[bytes]:
        """Canonical keys of all flip neighbors of ``keys``, in order."""
        unpack, neighbors = self.codec.unpack, self.engine.neighbors
        return [self.key(nb) for key in keys for _flip, nb in neighbors(unpack(key))]

    def check(self, keys) -> list[tuple[bytes, bool]]:
        """``(key, regular)`` for each key, decided by the local wall system."""
        engine, unpack = self.engine, self.codec.unpack
        return [(key, engine.is_regular(unpack(key), mode="local") is not None) for key in keys]


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
        self.placing_order = list(placing_order) if placing_order is not None else None
        self.walk = _Walk(config, group.elements)

        self.visited: dict[bytes, bool] = {}
        self.frontier: deque[bytes] = deque()
        self.emitted = 0
        self.expanded = 0
        self.complete = False
        self._stop = False
        self._last_checkpoint_emitted = 0

    def _passes_filters(self, masks) -> bool:
        engine = self.walk.engine
        if self.filters.require_unimodular and not engine.is_unimodular(masks):
            return False
        if self.filters.require_full and not engine.is_full(masks):
            return False
        return True

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

    def _steps(self, stack: ExitStack):
        """The expand and check steps: this process's walk for one job,
        else the same two methods mapped over chunks by a worker pool."""
        if self.jobs == 1:
            return self.walk.expand, self.walk.check
        # imported on demand: multiprocessing adds ~2 MiB to every process loading this module
        from concurrent.futures import ProcessPoolExecutor

        pool = stack.enter_context(
            ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_start_worker,
                initargs=(config_to_dict(self.config), self.group.elements),
            )
        )

        def mapped(step):
            def run(keys):
                size = max(1, len(keys) // (4 * self.jobs))
                chunks = [keys[i : i + size] for i in range(0, len(keys), size)]
                return [out for part in pool.map(partial(_in_worker, step), chunks) for out in part]

            return run

        return mapped("expand"), mapped("check")

    def run(self, limit: int | None = None) -> Iterator[Triangulation]:
        """Generate canonical representatives; stops at ``limit`` emissions.

        The stream may be halted and resumed from a checkpoint; the union
        of emissions equals an uninterrupted run's emissions as a set.
        """
        self._stop = False
        wave_size = 1 if self.jobs == 1 else max(64, 32 * self.jobs)
        unpack = self.walk.codec.unpack
        with ExitStack() as stack:
            expand, check = self._steps(stack)
            fresh = []
            if not self.visited:  # a fresh run: the seed is the first batch
                seed = placing_triangulation(self.config, self.placing_order)
                fresh = [self.walk.key(self.walk.engine.to_masks(seed.cells))]
            while True:
                emitted_now = []
                for key, regular in check(fresh):
                    if not (regular or self.visited):  # the seed's verdict
                        raise RuntimeError("placing triangulation must be regular")
                    self.visited[key] = regular
                    if regular:
                        self.frontier.append(key)
                        if self._passes_filters(unpack(key)):
                            self.emitted += 1
                            emitted_now.append(key)
                for key in emitted_now:
                    yield self.walk.engine.triangulation(unpack(key))
                self._maybe_checkpoint()
                if not self.frontier:
                    self.complete = True
                    break
                if self._stop or (limit is not None and self.emitted >= limit):
                    break
                wave = [self.frontier.popleft() for _ in range(min(wave_size, len(self.frontier)))]
                self.expanded += len(wave)
                fresh = [key for key in dict.fromkeys(expand(wave)) if key not in self.visited]
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
            "config": config_to_dict(self.config),
            "group": [list(g) for g in self.group.elements],
            "generators": [list(g) for g in self.group.generators],
            "filters": self.filters.to_dict(),
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
        doc["digest"] = _digest(doc)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._last_checkpoint_emitted = self.emitted


_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _digest(doc: dict) -> str:
    """SHA-256 of a checkpoint document, leaving out its ``digest`` field.

    Hashed chunk by chunk, so that no second copy of a large document is
    held in memory."""
    sha = hashlib.sha256()
    for chunk in _CANONICAL_JSON.iterencode({k: v for k, v in doc.items() if k != "digest"}):
        sha.update(chunk.encode())
    return sha.hexdigest()


def enumerate_triangulations(
    config: PointConfiguration,
    group: SymmetryGroup,
    filters: EnumerationFilters = EnumerationFilters(),
    jobs: int = 1,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    limit: int | None = None,
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
    )
    yield from enumerator.run(limit)


def load_checkpoint(
    path,
    config: PointConfiguration | None = None,
    jobs: int = 1,
    checkpoint_every: int | None = None,
) -> Enumerator:
    """Rebuild an Enumerator from a checkpoint file.

    Raises ``CheckpointMismatchError`` for a checkpoint written for another
    configuration than ``config`` and for any damaged file.
    """
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
        if doc["format"] != FORMAT_CHECKPOINT:
            raise CheckpointMismatchError(f"not a checkpoint file: {path}")
        if doc["digest"] != _digest(doc):
            raise CheckpointMismatchError("checkpoint digest does not match its own contents")
        stored_config = config_from_dict(doc["config"])
        if config is not None and config.points != stored_config.points:
            raise CheckpointMismatchError("checkpoint was written for a different configuration")
        group = SymmetryGroup(
            stored_config,
            tuple(tuple(g) for g in doc["generators"]),
            tuple(sorted(tuple(g) for g in doc["group"])),
        )
        enumerator = Enumerator(
            stored_config,
            group,
            EnumerationFilters.from_dict(doc["filters"]),
            jobs=jobs,
            checkpoint_path=path,
            checkpoint_every=checkpoint_every,
        )
        for field, regular in (("visited_regular", True), ("visited_nonregular", False)):
            for b64 in doc[field]:
                enumerator.visited[base64.b64decode(b64, validate=True)] = regular
        enumerator.frontier = deque(base64.b64decode(b64, validate=True) for b64 in doc["frontier"])
        if not all(enumerator.visited.get(key) for key in enumerator.frontier):
            raise CheckpointMismatchError("checkpoint frontier is not among its visited regular classes")
        enumerator.emitted = int(doc["emitted"])
        enumerator.expanded = int(doc["expanded"])
        enumerator.complete = bool(doc["complete"])
    # ValueError covers json.JSONDecodeError, UnicodeDecodeError and binascii.Error
    except (KeyError, ValueError, TypeError) as err:
        raise CheckpointMismatchError(f"damaged checkpoint {path}: {err!r}") from err
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
    visited = enumerator.visited
    regular = [key for key, ok in visited.items() if ok]
    return all(key in visited for key in enumerator.walk.expand(regular))


# -- worker-process side ------------------------------------------------

_worker_walk: _Walk | None = None


def _start_worker(config_doc, group_elements):
    global _worker_walk
    _worker_walk = _Walk(config_from_dict(config_doc), group_elements)


def _in_worker(step: str, keys):
    return getattr(_worker_walk, step)(keys)
