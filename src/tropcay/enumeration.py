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
system.  ``FlipEngine.verdict`` tries that candidate, then the heights
integrated across a spanning tree of the child's walls, and runs the
simplex only when both miss; it accepts only heights that satisfy every
local row strictly, checked in integers, and "not regular" only from a
Gordan certificate, so a bad guess costs a simplex call, never a wrong
answer.  The verdict is reached in the flip's own labeling, on the child
as the flip left it: its walls are derived from the parent's wall scan
that the flip carries (``FlipEngine.wall_circuits`` with ``flip``), so
neither the key nor the candidate is relabeled; the accepted witness is
relabeled into the key's labeling once, when it is stored.  A regular
key recorded without a witness, the seed or a key read from a checkpoint
(witnesses are not saved in checkpoints), is certified before it is
emitted or expanded: ``run`` certifies the unshown keys its first show
emits, then each resumed frontier key before expanding it.  The key's
wall scan, made by ``FlipEngine.check_triangulation``, gives its rows
and its lift; a key that is not a triangulation or not regular is
refused with ``CheckpointMismatchError``, and every unshown key is
checked to be a triangulation before a filter reads it.
``Enumerator.stats`` counts this run's verdicts by the ``how`` of
``FlipEngine.verdict``: ``carried``, ``lifted`` and ``solved``,
certifications included.

The walk's state is its checkpoint's: ``visited`` maps each key to its
verdict, ``regular`` lists the regular keys in recording order (the same
``bytes`` objects), the frontier is ``regular[expanded:]`` and the keys
not yet passed through the filters are ``regular[shown:]``, with
``expanded <= shown``; only the frontier's witnesses are kept beside, in
a dict by key.  A fresh run records its seed at once.  The search is one
loop, in one process: show ``regular[shown:]``, emitting the keys that
pass the filters, then expand the node ``regular[expanded]`` and move
``expanded`` past it (plain breadth-first order).  Expanding takes the
node's flip neighbors in turn: a neighbor whose sorted masks pack to a
visited key is dropped uncanonicalized, one whose canonical key is
visited is dropped, and the rest are regularity-checked, each verdict
recorded before the next neighbor is taken.  A ``limit`` bounds the
output, not the walk: showing stops at exactly that many emissions, and
the keys the last expanded node recorded past it are shown first on
resume.

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
import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import CheckpointMismatchError, GroupBoundError, InputError
from .formats import FORMAT_CHECKPOINT, _boolean, _integer, config_from_dict, config_to_dict
from .geometry import PointConfiguration
from .lp import relaxation_step
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


def _check_checkpoint_every(checkpoint_every: int) -> None:
    if checkpoint_every < 1:
        raise InputError(f"checkpoint interval must be at least 1, not {checkpoint_every}")


class Enumerator:
    """Flip-graph BFS emitting one canonical representative per orbit.

    ``counts`` tallies this run's verdicts by the ``how`` of
    ``FlipEngine.verdict``: a carried candidate (``carried``), lifted
    heights (``lifted``) or the simplex (``solved``)."""

    def __init__(
        self,
        config: PointConfiguration,
        group: SymmetryGroup,
        filters: EnumerationFilters = EnumerationFilters(),
        checkpoint_path=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        placing_order=None,
    ):
        if group.configuration.points != config.points:
            raise ValueError("symmetry group belongs to a different configuration")
        _check_checkpoint_every(checkpoint_every)
        self.config = config
        self.group = group
        self.filters = filters
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.placing_order = list(placing_order) if placing_order is not None else None
        self.engine = flip_engine(config)
        self.codec = _Codec(self.engine.n)
        self.context = RelabelContext(self.engine, group.elements)
        self.counts = Counter(carried=0, lifted=0, solved=0)

        self.visited: dict[bytes, bool] = {}
        self.regular: list[bytes] = []  # the regular keys in recording order
        self.expanded = 0  # the frontier is regular[expanded:]
        self.shown = 0  # regular[shown:] has not yet passed the filters
        self.witnesses: dict[bytes, object] = {}  # _compact, by frontier key; run certifies a key recorded without
        self.emitted = 0
        self._stop = False
        self._last_checkpoint_emitted = 0

    @property
    def complete(self) -> bool:
        """Whether the walk has expanded every regular class."""
        return 0 < len(self.regular) == self.expanded

    def _passes_filters(self, masks) -> bool:
        engine = self.engine
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
            "carried": self.counts["carried"],
            "lifted": self.counts["lifted"],
            "solved": self.counts["solved"],
        }

    # -- search ----------------------------------------------------------

    def _verdict(self, masks, walls, candidate=None) -> tuple[int, ...] | None:
        """``FlipEngine.verdict`` on the local rows of ``masks`` (``walls``
        is its scan), counted by how it was reached."""
        engine = self.engine
        witness, how = engine.verdict(engine.regularity_rows(masks, walls), masks, walls, candidate)
        self.counts[how] += 1
        return witness

    def _checked(self, key):
        """The masks of a key recorded without a witness (the seed or a key
        read from a checkpoint) and the wall scan made by checking that
        they form a triangulation."""
        masks = self.codec.unpack(key)
        try:
            return masks, self.engine.check_triangulation(masks)
        except ValueError as err:
            raise CheckpointMismatchError(f"checkpoint holds a key that is not a triangulation: {err}") from err

    def _certify(self, key) -> None:
        """Store the witness of a regular key recorded without one."""
        if key not in self.witnesses:
            witness = self._verdict(*self._checked(key))
            if witness is None:
                raise CheckpointMismatchError("checkpoint holds a class that is not regular")
            self.witnesses[key] = _compact(witness)

    def _expand(self, node) -> None:
        """Record, in order, the verdict of each flip neighbor of the
        frontier class ``node`` that is not visited.  A neighbor whose
        sorted masks pack to a visited key is that class (a key is its own
        canonical form).  The verdict is reached in the flip's labeling,
        and a witness is relabeled into the key's labeling when stored."""
        engine, pack, visited = self.engine, self.codec.pack, self.visited
        canonical = self.context.canonical
        parent = self.witnesses.pop(node)
        for flip, child in engine.neighbors(self.codec.unpack(node)):
            if pack(child) in visited:
                continue
            form, element = canonical(child)
            key = pack(form)
            if key in visited:
                continue
            witness = self._verdict(child, engine.wall_circuits(child, flip), _candidate(parent, flip.circuit))
            visited[key] = witness is not None
            if witness is not None:
                self.regular.append(key)
                self.witnesses[key] = _compact(_relabeled(witness, element))

    def run(self, limit: int | None = None) -> Iterator[Triangulation]:
        """Generate canonical representatives; stops after ``limit`` emissions.

        The stream may be halted and resumed from a checkpoint; the
        emissions before and after the halt, joined, are an uninterrupted
        run's emissions in order.
        """
        if limit is not None and limit < 0:
            raise InputError(f"limit must be at least 0, not {limit}")
        self._stop = False
        unpack = self.codec.unpack
        if not self.visited:  # a fresh run records its seed, certified below
            seed = placing_triangulation(self.config, self.placing_order)
            key = self.codec.pack(self.context.canonical(self.engine.to_masks(seed.cells))[0])
            self.visited[key] = True
            self.regular.append(key)
        # every unshown key is checked before a filter reads it; the keys the
        # first show below emits are certified, the others when expanded
        room = None if limit is None else max(0, limit - self.emitted)
        shows = (key for key in self.regular[self.shown :] if self._passes_filters(self._checked(key)[0]))
        for key in islice(shows, room):
            self._certify(key)
        while True:
            while self.shown < len(self.regular) and (limit is None or self.emitted < limit):
                masks = unpack(self.regular[self.shown])
                self.shown += 1
                if self._passes_filters(masks):
                    self.emitted += 1
                    yield self.engine.triangulation(masks)
            if self.expanded == len(self.regular) or self._stop or (limit is not None and self.emitted >= limit):
                break
            self._maybe_checkpoint()  # every stop above ends in the final write
            node = self.regular[self.expanded]
            self._certify(node)  # a resumed frontier class
            self._expand(node)
            self.expanded += 1
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
    # imported on demand: loading it adds ~3.5 MiB to every process loading this module
    import hashlib

    sha = hashlib.sha256()
    for chunk in _CANONICAL_JSON.iterencode({k: v for k, v in doc.items() if k != "digest"}):
        sha.update(chunk.encode())
    return sha.hexdigest()


def load_checkpoint(
    path,
    config: PointConfiguration | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> Enumerator:
    """Rebuild an Enumerator from a checkpoint file.

    Raises ``CheckpointMismatchError`` for a checkpoint written for another
    configuration than ``config`` and for any damaged file.
    """
    _check_checkpoint_every(checkpoint_every)
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
            checkpoint_path=path,
            checkpoint_every=checkpoint_every,
        )
        width, visited = enumerator.codec.width, enumerator.visited
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
