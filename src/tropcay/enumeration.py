"""Exhaustive enumeration of regular triangulations up to symmetry.

Breadth-first search over the bistellar flip graph, starting from the
placing triangulation.  Connectivity of the flip graph restricted to
regular triangulations (secondary polytope theory) makes the search
exhaustive; the tests re-check at desk scale (``verify_closure`` in
``tests/oracles.py``) that every regular neighbor of an emitted class was
seen.

Each discovered triangulation is reduced to its canonical orbit
representative; a class is regularity-checked exactly once.  Expansion
always walks every regular class; the unimodular/full filters restrict
emission only.  The walk's state can be written to a self-describing
JSON checkpoint and resumed later; a halted run and its resumption emit
an uninterrupted run's classes in the same order.

A regular class keeps its integer witness heights while it waits in the
frontier.  Adjacent secondary cones share the wall whose normal is the
flip's circuit, so the parent's witness pushed just past that wall
(``lp.relaxation_step``) nearly always satisfies the child's local
system.  One verdict routine (``_Walk._verdict``) tries that candidate,
then the heights integrated across a spanning tree of the child's walls
(``FlipEngine.lift``), each with at most a few relaxation steps
(``lp.relaxed_witness``), and runs the simplex only when both miss.  It
works in the flip's own labeling, on the child as the flip left it: the
child's walls are derived from the parent's wall scan that the flip
carries (``FlipEngine.wall_circuits`` with ``flip``), so neither the key
nor the candidate is relabeled; the accepted witness is relabeled into
the key's labeling once, when it is stored.  A verdict is accepted only
from heights that satisfy every local row strictly, checked in integers,
and "not regular" only from the simplex's Gordan certificate, so a bad
guess costs a simplex call, never a wrong answer.  A regular key
recorded without a witness, the seed or a key read from a checkpoint
(witnesses are not saved in checkpoints), is certified by
``_Walk.certify`` before it is shown or expanded, those waiting to be
shown a wave's worth at a time: ``FlipEngine.check_triangulation`` makes
its wall scan, which gives its rows, its lift and, when ``expand``
certifies it, its flips; a key that is not a triangulation or not
regular is refused with ``CheckpointMismatchError``.
``Enumerator.stats`` counts this run's verdicts as ``carried`` (from a
candidate), ``lifted`` and ``solved`` (from the simplex), certifications
included.

The walk's state is its checkpoint's: ``visited`` maps each key to its
verdict, ``regular`` lists the regular keys in recording order (the same
``bytes`` objects), the frontier is ``regular[expanded:]`` and the keys
not yet passed through the filters are ``regular[shown:]``, with
``expanded <= shown``; only the frontier's witnesses are kept beside, in
a dict by key.  A fresh run records its seed at once.  The search is one
loop: show ``regular[shown:]``, emitting the keys that pass the filters,
then expand the wave ``regular[expanded:][:size]`` to the canonical keys
of all neighbors, each with what its candidate is built from, drop the
keys already visited, regularity-check the rest in first-seen order,
record every verdict and move ``expanded`` past the wave.  With one job
a wave is a single node and the steps, certification included, run in
this process (plain breadth-first order), where a neighbor whose
sorted masks pack to a visited key is dropped uncanonicalized.  With
``jobs > 1`` a wave holds ``max(64, 32*jobs)`` nodes and the same steps
are mapped over chunks by worker processes, each holding its own flip
engine; this process deduplicates and records in the same order.  A
``limit`` bounds the output, not the walk: showing stops at exactly that
many emissions, and the keys the last wave recorded past it are shown
first on resume.

A checkpoint stores the regular keys, the non-regular keys,
``expanded``, ``shown`` and ``emitted``, each fact once.  The group is
the certified closure of the stored generators; a run is complete once
it has a regular class and an empty frontier.  The whole document
carries a SHA-256 digest; a file that is not JSON, is of another format,
lacks a field, fails the digest, holds a key that is not a whole number
of packed cells or is listed twice, has no regular key, or has counts
outside ``0 <= expanded <= shown <= len(regular)`` and ``emitted <=
shown`` is refused with ``CheckpointMismatchError``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .errors import CheckpointMismatchError, GroupBoundError, InputError
from .formats import FORMAT_CHECKPOINT, _boolean, _integer, config_from_dict, config_to_dict
from .geometry import PointConfiguration
from .lp import relaxation_step, relaxed_witness
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
    """Which regular triangulations are emitted (the search walks them all:
    flip connectivity is only guaranteed across regular triangulations)."""

    require_unimodular: bool = False
    require_full: bool = False

    def to_dict(self) -> dict:
        return {
            "require_unimodular": self.require_unimodular,
            "require_full": self.require_full,
        }

    @classmethod
    def from_dict(cls, doc) -> "EnumerationFilters":
        return cls(_boolean(doc["require_unimodular"]), _boolean(doc["require_full"]))


class _Codec:
    """Packs a sorted mask tuple into bytes (fixed width per mask)."""

    def __init__(self, npoints: int):
        self.width = (npoints + 7) // 8

    def pack(self, masks) -> bytes:
        w = self.width
        return b"".join([m.to_bytes(w, "big") for m in masks])

    def unpack(self, blob: bytes):
        w, from_bytes = self.width, int.from_bytes
        return tuple([from_bytes(blob[i : i + w], "big") for i in range(0, len(blob), w)])


def _compact(witness):
    """A witness as an array of 4-byte integers, a fifth of a tuple's
    memory; one with a larger entry stays a tuple."""
    # imported on demand: loading it adds ~0.1 MiB to every process loading this module
    from array import array

    try:
        return array("i", witness)
    except OverflowError:
        return witness


def _candidate(witness, circuit) -> tuple[int, ...]:
    """A parent's witness pushed just past the wall of the flip along
    ``circuit``, whose row in the child is ``-circuit``; both are in the
    flip's labeling."""
    return relaxation_step(witness, [-c for c in circuit])


def _relabeled(heights, element) -> list[int]:
    """Heights moved along the group element: point ``i``'s height goes to
    point ``element[i]``."""
    out = [0] * len(heights)
    for i, height in zip(element, heights):
        out[i] = height
    return out


class _Walk:
    """Flip engine, key codec and group action of one process: the expand
    and check steps of the search, which worker processes can take over.
    ``counts`` tallies the verdicts this process reached by a carried
    candidate (``carried``), by lifted heights (``lifted``) and by the
    simplex (``solved``).  ``known``
    holds the keys ``expand`` drops unseen: ``visited`` in this process,
    empty in a worker (a copy per worker would double the walk's memory)."""

    def __init__(self, config: PointConfiguration, group_elements):
        self.engine = flip_engine(config)
        self.codec = _Codec(self.engine.n)
        self.context = RelabelContext(self.engine, group_elements)
        self.counts = Counter(carried=0, lifted=0, solved=0)
        self.known: dict[bytes, bool] = {}

    def key(self, masks) -> bytes:
        return self.codec.pack(self.context.canonical(masks)[0])

    def expand(self, nodes) -> list[tuple[bytes, tuple]]:
        """``(key, carry)`` for every flip neighbor of each ``(key, witness)``
        node, in order.  ``carry`` is ``(witness, flip, child, element)``:
        the node's witness, the flip with its scan of the node, the
        neighbor's masks in the node's labeling and the element taking them
        to the key.  ``check`` works in that labeling.  A node without a
        witness (read from a checkpoint) is certified first.  A neighbor
        whose sorted masks pack to a key in ``known`` is that class (a key
        is its own canonical form) and is left out."""
        engine, pack, unpack, known = self.engine, self.codec.pack, self.codec.unpack, self.known
        canonical = self.context.canonical
        out = []
        for key, witness in nodes:
            masks, walls = unpack(key), None
            if witness is None:
                witness, walls = self._certified(masks)
            for flip, child in engine.neighbors(masks, walls):
                if pack(child) not in known:
                    form, element = canonical(child)
                    out.append((pack(form), (witness, flip, child, element)))
        return out

    def certify(self, keys) -> list[tuple[int, ...]]:
        """The witness of each regular key recorded without one, in order."""
        return [self._certified(self.codec.unpack(key))[0] for key in keys]

    def _certified(self, masks):
        """The witness and wall scan of a regular key recorded without a
        witness: the seed, or a key read from a checkpoint.  The key must
        be a triangulation, whose check makes the scan."""
        try:
            walls = self.engine.check_triangulation(masks)
        except ValueError as err:
            raise CheckpointMismatchError(f"checkpoint holds a key that is not a triangulation: {err}") from err
        witness = self._verdict(masks, walls)
        if witness is None:
            raise CheckpointMismatchError("checkpoint holds a class that is not regular")
        return witness, walls

    def check(self, pairs) -> list[tuple[bytes, tuple[int, ...] | None]]:
        """``(key, witness)`` for each ``(key, carry)`` pair, the witness
        ``None`` for a key that is not regular.  The child's walls are
        derived from its flip's scan, in the flip's labeling, and its
        candidate is the parent's witness pushed past the flipped wall.
        A witness is relabeled into the key's labeling once, when it is
        returned."""
        engine = self.engine
        out = []
        for key, (parent, flip, child, element) in pairs:
            walls = engine.wall_circuits(child, flip)
            witness = self._verdict(child, walls, _candidate(parent, flip.circuit))
            if witness is not None:
                witness = _relabeled(witness, element)
            out.append((key, witness))
        return out

    def _verdict(self, masks, walls, candidate=None) -> tuple[int, ...] | None:
        """Witness heights of the local rows of ``masks`` (``walls`` is its
        scan), or ``None`` if it is not regular.  ``candidate``, if given,
        and then ``FlipEngine.lift`` are each tried with a few relaxation
        steps (``lp.relaxed_witness``, which checks every row in
        integers); only when both miss does the simplex decide, so
        ``None`` always comes from its Gordan certificate."""
        engine = self.engine
        rows = engine.regularity_rows(masks, walls=walls)
        if candidate is not None:
            witness = relaxed_witness(rows, candidate)
            if witness is not None:
                self.counts["carried"] += 1
                return witness
        witness = relaxed_witness(rows, engine.lift(masks, walls))
        if witness is not None:
            self.counts["lifted"] += 1
            return witness
        self.counts["solved"] += 1
        return engine.solve(rows)


def _check_run_options(jobs: int, checkpoint_every: int) -> None:
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, not {jobs}")
    if checkpoint_every < 1:
        raise InputError(f"checkpoint interval must be at least 1, not {checkpoint_every}")


class Enumerator:
    """Flip-graph BFS emitting one canonical representative per orbit."""

    def __init__(
        self,
        config: PointConfiguration,
        group: SymmetryGroup,
        filters: EnumerationFilters = EnumerationFilters(),
        jobs: int = 1,
        checkpoint_path=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        placing_order=None,
    ):
        if group.configuration.points != config.points:
            raise ValueError("symmetry group belongs to a different configuration")
        _check_run_options(jobs, checkpoint_every)
        self.config = config
        self.group = group
        self.filters = filters
        self.jobs = jobs
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.placing_order = list(placing_order) if placing_order is not None else None
        self.walk = _Walk(config, group.elements)

        self.visited: dict[bytes, bool] = self.walk.known  # filled in place, never rebound
        self.regular: list[bytes] = []  # the regular keys in recording order
        self.expanded = 0  # the frontier is regular[expanded:]
        self.shown = 0  # regular[shown:] has not yet passed the filters
        self.witnesses: dict[bytes, object] = {}  # _compact, by frontier key; the seed and a resumed key have none
        self.emitted = 0
        self._stop = False
        self._last_checkpoint_emitted = 0

    @property
    def complete(self) -> bool:
        """Whether the walk has expanded every regular class."""
        return 0 < len(self.regular) == self.expanded

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
            "regular": len(self.regular),
            "emitted": self.emitted,
            "expanded": self.expanded,
            "frontier": len(self.regular) - self.expanded,
            "complete": self.complete,
            # verdicts of this run, not saved in checkpoints
            "carried": self.walk.counts["carried"],
            "lifted": self.walk.counts["lifted"],
            "solved": self.walk.counts["solved"],
        }

    # -- search ----------------------------------------------------------

    def _steps(self, stack: ExitStack):
        """The expand, check and certify steps: this process's walk for one
        job, else the same three methods mapped over chunks by a worker
        pool."""
        if self.jobs == 1:
            return self.walk.expand, self.walk.check, self.walk.certify
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
            def run(items):
                size = max(1, len(items) // (4 * self.jobs))
                chunks = [items[i : i + size] for i in range(0, len(items), size)]
                out = []
                for part, counts in pool.map(partial(_in_worker, step), chunks):
                    out += part
                    self.walk.counts.update(counts)
                return out

            return run

        return mapped("expand"), mapped("check"), mapped("certify")

    def run(self, limit: int | None = None) -> Iterator[Triangulation]:
        """Generate canonical representatives; stops after ``limit`` emissions.

        The stream may be halted and resumed from a checkpoint; the
        emissions before and after the halt, joined, are an uninterrupted
        run's emissions in order.
        """
        if limit is not None and limit < 0:
            raise InputError(f"limit must be at least 0, not {limit}")
        self._stop = False
        wave_size = 1 if self.jobs == 1 else max(64, 32 * self.jobs)
        walk, unpack = self.walk, self.walk.codec.unpack
        if not self.visited:  # a fresh run records its seed, certified when it is shown
            seed = placing_triangulation(self.config, self.placing_order)
            key = walk.key(walk.engine.to_masks(seed.cells))
            self.visited[key] = True
            self.regular.append(key)
        with ExitStack() as stack:
            expand, check, certify = self._steps(stack)
            while True:
                while self.shown < len(self.regular) and (limit is None or self.emitted < limit):
                    key = self.regular[self.shown]
                    if key not in self.witnesses:  # certified a wave's worth at a time
                        batch = self.regular[self.shown : self.shown + wave_size]
                        batch = [k for k in batch if k not in self.witnesses]
                        self.witnesses.update(zip(batch, map(_compact, certify(batch))))
                    masks = unpack(key)
                    self.shown += 1
                    if self._passes_filters(masks):
                        self.emitted += 1
                        yield walk.engine.triangulation(masks)
                if self.expanded == len(self.regular) or self._stop or (limit is not None and self.emitted >= limit):
                    break
                self._maybe_checkpoint()  # every stop above ends in the final write
                wave = self.regular[self.expanded : self.expanded + wave_size]
                children = expand([(key, self.witnesses.pop(key, None)) for key in wave])
                # one carry per new key, in first-seen order; every one is recorded
                fresh = {key: carry for key, carry in children if key not in self.visited}
                for key, witness in check(list(fresh.items())):
                    self.visited[key] = witness is not None
                    if witness is not None:
                        self.regular.append(key)
                        self.witnesses[key] = _compact(witness)
                self.expanded += len(wave)
        self._write_checkpoint()

    # -- checkpointing -----------------------------------------------------

    def _maybe_checkpoint(self):
        if self.checkpoint_path is None:
            return
        if self.emitted - self._last_checkpoint_emitted >= self.checkpoint_every:
            self._write_checkpoint()

    def _write_checkpoint(self):
        path = self.checkpoint_path
        if path is None:
            return
        doc = {
            "format": FORMAT_CHECKPOINT,
            "config": config_to_dict(self.config),
            "generators": [list(g) for g in self.group.generators],
            "filters": self.filters.to_dict(),
            "regular": [base64.b64encode(k).decode() for k in self.regular],
            "nonregular": [base64.b64encode(k).decode() for k, v in self.visited.items() if not v],
            "expanded": self.expanded,
            "shown": self.shown,
            "emitted": self.emitted,
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


def load_checkpoint(
    path,
    config: PointConfiguration | None = None,
    jobs: int = 1,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> Enumerator:
    """Rebuild an Enumerator from a checkpoint file.

    Raises ``CheckpointMismatchError`` for a checkpoint written for another
    configuration than ``config`` and for any damaged file.
    """
    _check_run_options(jobs, checkpoint_every)
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
        if doc["format"] != FORMAT_CHECKPOINT:
            raise CheckpointMismatchError(f"{path} has format {doc['format']!r}, not {FORMAT_CHECKPOINT}")
        if doc["digest"] != _digest(doc):
            raise CheckpointMismatchError("checkpoint digest does not match its own contents")
        stored_config = config_from_dict(doc["config"])
        if config is not None and config.points != stored_config.points:
            raise CheckpointMismatchError("checkpoint was written for a different configuration")
        enumerator = Enumerator(
            stored_config,
            SymmetryGroup.from_generators(stored_config, doc["generators"]),
            EnumerationFilters.from_dict(doc["filters"]),
            jobs=jobs,
            checkpoint_path=path,
            checkpoint_every=checkpoint_every,
        )
        width, visited = enumerator.walk.codec.width, enumerator.visited
        for field, regular in (("regular", True), ("nonregular", False)):
            for b64 in doc[field]:
                key = base64.b64decode(b64, validate=True)
                if not key or len(key) % width:
                    raise CheckpointMismatchError(
                        f"checkpoint key of {len(key)} bytes is not a whole number of {width}-byte cells"
                    )
                if key in visited:
                    raise CheckpointMismatchError(f"checkpoint lists the key {b64} twice")
                visited[key] = regular
        keys = enumerator.regular = [key for key, regular in visited.items() if regular]
        expanded, shown, emitted = (_integer(doc[name]) for name in ("expanded", "shown", "emitted"))
        # the frontier is regular[expanded:], and each emission is a distinct class of regular[:shown]
        if not (keys and 0 <= expanded <= shown <= len(keys) and 0 <= emitted <= shown):
            raise ValueError(
                f"checkpoint's counts expanded={expanded}, shown={shown}, emitted={emitted} do not fit "
                f"0 <= expanded <= shown <= {len(keys)} regular keys and emitted <= shown"
            )
        enumerator.expanded, enumerator.shown, enumerator.emitted = expanded, shown, emitted
    # ValueError covers json.JSONDecodeError, UnicodeDecodeError, binascii.Error and a
    # generator that is not an affine lattice map; GroupBoundError, a closure larger
    # than GROUP_BOUND
    except (KeyError, ValueError, TypeError, GroupBoundError) as err:
        raise CheckpointMismatchError(f"damaged checkpoint {path}: {err!r}") from err
    enumerator._last_checkpoint_emitted = enumerator.emitted
    return enumerator


# -- worker-process side ------------------------------------------------

_worker_walk: _Walk | None = None


def _start_worker(config_doc, group_elements):
    global _worker_walk
    _worker_walk = _Walk(config_from_dict(config_doc), group_elements)


def _in_worker(step: str, items):
    """One step on a chunk, with the verdict counts it added."""
    out = getattr(_worker_walk, step)(items)
    counts, _worker_walk.counts = _worker_walk.counts, Counter()
    return out, counts
