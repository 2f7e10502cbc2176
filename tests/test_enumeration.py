import base64
import hashlib
import json
import os
import random
from collections import Counter
from functools import cache, partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import verify_closure
from test_triangulation import nested_triangles
from tropcay.errors import CheckpointMismatchError
from tropcay.formats import cells_to_text
from tropcay.geometry import (
    PointConfiguration,
    WeightVector,
    cayley_config,
    regular_subdivision,
    simplex_lattice_points,
)
from tropcay.triangulation import (
    RelabelContext,
    SymmetryGroup,
    Triangulation,
    apply_symmetry,
    builtin_symmetry,
    is_regular,
    is_unimodular,
    placing_triangulation,
)
from tropcay.enumeration import (
    EnumerationFilters,
    Enumerator,
    _Walk,
    _candidate,
    _digest,
    load_checkpoint,
)
from tropcay.lp import _simplex, relaxed_witness


def square_config():
    return PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1)), ("A", "B", "C", "D"))


def cubic_polygon():
    return simplex_lattice_points(2, 3)


def cell_sets(triangulations):
    return sorted(t.cells for t in triangulations)


def uses_every_point(t):
    return {i for c in t.cells for i in c} == set(range(len(t.configuration)))


def test_square_has_two_triangulations():
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    out = list(Enumerator(cfg, grp).run())
    assert len(out) == 2


def test_cubic_polygon_79_unimodular():
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", cfg)
    en = Enumerator(cfg, grp, EnumerationFilters(require_unimodular=True))
    out = list(en.run())
    assert len(out) == 79
    assert en.complete
    assert all(is_unimodular(t) for t in out)
    assert all(uses_every_point(t) for t in out)


def test_cubic_polygon_18_orbits_under_s3():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    out = list(Enumerator(cfg, grp, EnumerationFilters(require_unimodular=True)).run())
    assert len(out) == 18
    # no two representatives lie in the same orbit
    reps = set()
    for t in out:
        images = {tuple(apply_symmetry(t, g).cells) for g in grp.elements}
        assert not (images & reps)
        reps |= images


def test_emitted_triangulations_are_regular():
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    for t in Enumerator(cfg, grp).run():
        assert is_regular(t) is not None


def test_full_filter():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    full = list(Enumerator(cfg, grp, EnumerationFilters(require_full=True)).run())
    assert all(uses_every_point(t) for t in full)
    unimod = list(Enumerator(cfg, grp, EnumerationFilters(require_unimodular=True)).run())
    # unimodular triangulations use every lattice point, so they are full
    full_sets = {t.cells for t in full}
    assert all(t.cells in full_sets for t in unimod)


def test_emission_order_independent_of_jobs():
    # a wave records its neighbors' fresh keys in first-seen order, as one node at a time would
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    filters = EnumerationFilters(require_unimodular=True)
    serial = [t.cells for t in Enumerator(cfg, grp, filters, jobs=1).run()]
    parallel = [t.cells for t in Enumerator(cfg, grp, filters, jobs=8).run()]
    assert len(serial) == 18
    assert serial == parallel


@cache
def _complete_3d2_runs(order):
    """For each group, the sorted cells of a complete run of 3D2 seeded by
    the placing triangulation of ``order``, its visited count and the
    number of unimodular classes it emitted."""
    cfg = cubic_polygon()
    runs = {}
    for kind in ("trivial", "simplex-3d2"):
        en = Enumerator(cfg, builtin_symmetry(kind, cfg), placing_order=order)
        out = list(en.run())
        assert en.complete
        runs[kind] = (cell_sets(out), len(en.visited), sum(map(is_unimodular, out)))
    return runs


@pytest.mark.parametrize(
    "order",
    [tuple(range(9, -1, -1)), tuple(random.Random(5).sample(range(10), 10))],
    ids=["reversed", "seeded-random"],
)
def test_emission_set_does_not_depend_on_the_placing_order(order):
    runs = _complete_3d2_runs(order)
    _cells, visited, unimodular = runs["trivial"]
    assert (visited, unimodular) == (1166, 79)
    assert len(runs["simplex-3d2"][0]) == 213
    assert runs == _complete_3d2_runs(None)


def test_local_verdicts_match_global_regularity():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    en = Enumerator(cfg, grp)
    list(en.run())
    assert en.complete
    engine, unpack = en.walk.engine, en.walk.codec.unpack
    for key, regular in en.visited.items():
        t = engine.triangulation(unpack(key))
        assert regular == (is_regular(t, mode="global") is not None)


def test_halt_and_resume_matches_fresh_run(tmp_path):
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", cfg)
    filters = EnumerationFilters(require_unimodular=True)

    fresh = cell_sets(Enumerator(cfg, grp, filters).run())
    assert len(fresh) == 79

    ckpt = str(tmp_path / "run.ckpt.json")
    en = Enumerator(cfg, grp, filters, checkpoint_path=ckpt)
    first = [t for t in en.run(limit=10)]
    assert len(first) >= 10
    resumed = list(load_checkpoint(ckpt).run())
    combined = cell_sets(first + resumed)
    assert combined == fresh
    assert len(first) + len(resumed) == 79  # no duplicates across the halt


@pytest.mark.parametrize("jobs, limit", [(1, 2), (2, 50)])
def test_limit_checks_only_keys_it_records(jobs, limit):
    # Every class of 3D2 is regular, so each checked key is a visited one
    # unless the run dropped verdicts; the seed is recorded without a check.
    cfg = cubic_polygon()
    en = Enumerator(cfg, builtin_symmetry("trivial", cfg), jobs=jobs)
    checked = []
    steps = en._steps

    def counting_steps(stack):
        expand, check, certify = steps(stack)

        def counted(pairs):
            checked.extend(key for key, _carry in pairs)
            return check(pairs)

        return expand, counted, certify

    en._steps = counting_steps
    assert len(list(en.run(limit=limit))) == limit
    assert all(en.visited.values())
    assert en.regular[0] not in checked
    assert sorted(checked) == sorted(en.regular[1:])


def _assert_walk_counts(en):
    s = en.stats()
    assert en.regular == [key for key, regular in en.visited.items() if regular]
    assert (s["regular"], s["expanded"]) == (len(en.regular), en.expanded)
    assert s["frontier"] == len(en.regular[en.expanded :])


@pytest.mark.parametrize("jobs, limit", [(1, 10), (2, 50)])
def test_walk_counts_hold_across_a_halt_and_resume(tmp_path, jobs, limit):
    cfg = cubic_polygon()
    ckpt = str(tmp_path / "run.ckpt.json")
    en = Enumerator(cfg, builtin_symmetry("trivial", cfg), jobs=jobs, checkpoint_path=ckpt)
    waves = []
    steps = en._steps

    def recording_steps(stack):
        expand, check, certify = steps(stack)
        return (lambda wave: waves.append(wave) or expand(wave)), check, certify

    en._steps = recording_steps
    assert len(list(en.run(limit=limit))) == limit
    _assert_walk_counts(en)
    # the last wave is expanded in full, and the keys recorded past the
    # limit wait at regular[shown:] to be shown first on resume
    last = [key for key, _witness in waves[-1]]
    assert en.regular[en.expanded - len(last) : en.expanded] == last
    assert en.emitted == en.shown == limit < len(en.regular)
    pending = [en.walk.engine.triangulation(en.walk.codec.unpack(key)).cells for key in en.regular[en.shown :]]
    resumed = load_checkpoint(ckpt, jobs=jobs)
    counts = ("regular", "expanded", "frontier")
    assert [resumed.stats()[k] for k in counts] == [en.stats()[k] for k in counts]
    assert [t.cells for t in resumed.run()][: len(pending)] == pending
    _assert_walk_counts(resumed)
    assert (resumed.stats()["regular"], resumed.stats()["expanded"]) == (1166, 1166)


def test_resume_checkpoint_with_require_regular_field(tmp_path):
    # A filters object may carry the always-true ``require_regular`` flag;
    # it is ignored, and the run resumes to the fresh run's union.
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", cfg)
    filters = EnumerationFilters(require_unimodular=True)
    fresh = cell_sets(Enumerator(cfg, grp, filters).run())

    ckpt = tmp_path / "run.ckpt.json"
    first = list(Enumerator(cfg, grp, filters, checkpoint_path=str(ckpt)).run(limit=10))
    doc = json.loads(ckpt.read_text())
    assert "require_regular" not in doc["filters"]
    doc["filters"]["require_regular"] = True
    doc["digest"] = _digest(doc)
    ckpt.write_text(json.dumps(doc))
    resumed = list(load_checkpoint(str(ckpt)).run())
    assert cell_sets(first + resumed) == fresh
    assert len(first) + len(resumed) == len(fresh)


def test_checkpoint_stores_each_fact_once(tmp_path):
    cfg = cubic_polygon()
    ckpt = str(tmp_path / "run.ckpt.json")
    en = Enumerator(cfg, builtin_symmetry("s3", cfg), checkpoint_path=ckpt)
    assert not en.complete
    list(en.run(limit=50))
    with open(ckpt, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert list(doc) == [
        "format", "config", "generators", "filters", "regular", "nonregular", "expanded", "shown", "emitted",
        "digest",
    ]
    # the walk's own state is the file's: regular keys in recording order and the two cursors
    assert [base64.b64decode(b64) for b64 in doc["regular"]] == en.regular
    assert doc["expanded"] == en.expanded <= doc["shown"] == en.shown < len(en.regular)
    resumed = load_checkpoint(ckpt)
    assert resumed.group.elements == en.group.elements
    assert (resumed.regular, resumed.expanded, resumed.shown) == (en.regular, en.expanded, en.shown)
    # the regular keys are the visited keys themselves, not second copies
    for walk in (en, resumed):
        keys = {key: key for key in walk.visited}
        assert all(keys[key] is key for key in walk.regular)
    assert not resumed.complete
    list(resumed.run())
    assert resumed.complete


def test_resume_completed_checkpoint_is_empty(tmp_path):
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    ckpt = str(tmp_path / "done.ckpt.json")
    en = Enumerator(cfg, grp, checkpoint_path=ckpt)
    list(en.run())
    assert en.complete
    assert list(load_checkpoint(ckpt).run()) == []


def test_resume_rejects_wrong_configuration(tmp_path):
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    ckpt = str(tmp_path / "sq.ckpt.json")
    en = Enumerator(cfg, grp, checkpoint_path=ckpt)
    list(en.run(limit=1))
    other = cubic_polygon()
    with pytest.raises(CheckpointMismatchError):
        list(load_checkpoint(ckpt, config=other).run())


def test_checkpoint_is_fsynced_before_rename(tmp_path, monkeypatch):
    synced = []
    renames = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        renames.append((src, dst, os.stat(src).st_ino, os.stat(src).st_size))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    ckpt = str(tmp_path / "sq.ckpt.json")
    en = Enumerator(square_config(), builtin_symmetry("trivial", square_config()), checkpoint_path=ckpt)
    list(en.run())
    assert renames
    for src, dst, inode, size in renames:
        assert (src, dst) == (ckpt + ".tmp", ckpt)
        assert size > 0 and (inode, size) in synced


def test_resume_rejects_corrupt_file(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointMismatchError, match="something-else"):  # the message names the format
        load_checkpoint(str(path))


def test_closure_of_completed_run():
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    en = Enumerator(cfg, grp)
    list(en.run())
    assert verify_closure(en)


def test_closure_of_planar_run():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    en = Enumerator(cfg, grp, EnumerationFilters(require_unimodular=True))
    list(en.run())
    assert verify_closure(en)


def test_group_from_wrong_configuration_rejected():
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", square_config())
    with pytest.raises(ValueError):
        Enumerator(cfg, grp)


# SHA-256 of the sorted cell texts emitted by complete runs: a change to
# flips, canonical forms or regularity that alters an emission set shows here.
_PINNED_RUNS = {
    "3D2/trivial": (
        cubic_polygon, "trivial", 1166,
        "e924f959d5d874a92d3a0bb7b3e0b60f6ee06f2ca8f147687e2b8155bd570281",
    ),
    "3D2/S3": (
        cubic_polygon, "simplex-3d2", 213,
        "5072cf1cb3eed2062857ad28e005740ac310a0642d038ba5caa953bbb9c21751",
    ),
    "nested/trivial": (
        lambda: nested_triangles()[0], "trivial", 16,
        "6d6d96fd42c7d3a7088e885fedd34d8ceab59e09a03364815b613ad3ca16898a",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_complete_run_emissions_pinned(name):
    make_config, kind, count, digest = _PINNED_RUNS[name]
    cfg = make_config()
    emitted = list(Enumerator(cfg, builtin_symmetry(kind, cfg)).run())
    for t in emitted:
        Triangulation.make(cfg, t.cells)
    texts = sorted(cells_to_text(cfg, t.cells) for t in emitted)
    assert len(texts) == count
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_quadric_emissions_are_triangulations():
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    for t in islice(Enumerator(cfg, builtin_symmetry("s4xz2", cfg)).run(), 300):
        Triangulation.make(cfg, t.cells)


# -- carried witnesses ---------------------------------------------------------

_WALKS = {
    "3D2/S3": (cubic_polygon, "simplex-3d2"),
    "C(2D3,2D3)/S4xZ2": (
        lambda: cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2)),
        "s4xz2",
    ),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_WALKS)), st.integers(1, 12), st.data())
def test_carried_witnesses_match_cold_verdicts(name, steps, data):
    # A random walk through the enumerator's own expand and check steps:
    # every verdict equals a cold simplex on the canonical child, and every
    # carried witness satisfies each of its local rows.  The walk moves on
    # to each regular child it draws.
    make_config, kind = _WALKS[name]
    cfg = make_config()
    walk = _Walk(cfg, builtin_symmetry(kind, cfg).elements)
    engine, unpack = walk.engine, walk.codec.unpack
    key = walk.key(engine.to_masks(placing_triangulation(cfg).cells))
    [witness] = walk.certify([key])  # the seed is recorded without a witness
    for _ in range(steps):
        children = walk.expand([(key, witness)])
        child, carry = children[data.draw(st.integers(0, len(children) - 1))]
        carried = walk.counts["carried"]
        [(child_key, child_witness)] = walk.check([(child, carry)])
        assert child_key == child
        masks = unpack(child)
        # the carry is in the flip's labeling, which its element takes to
        # the key; there the candidate lies on the child's side of the
        # flipped wall, whose row is the flip's circuit negated
        parent, flip, flipped, _element = carry
        assert walk.key(flipped) == child
        wall = tuple(-c for c in flip.circuit)
        assert wall in engine.regularity_rows(flipped)
        assert sum(c * x for c, x in zip(wall, _candidate(parent, flip.circuit))) > 0
        assert (child_witness is not None) == (engine.solve(engine.regularity_rows(masks)) is not None)
        if walk.counts["carried"] > carried:
            rows = engine.regularity_rows(masks)
            assert all(sum(c * x for c, x in zip(row, child_witness)) > 0 for row in rows)
        if child_witness is not None:
            key, witness = child, child_witness
    # the last witness, as heights, lifts exactly the canonical class it certifies
    assert regular_subdivision(cfg, WeightVector(witness)).cells == engine.triangulation(unpack(key)).cells


def _tetrahedral_s4(cfg):
    """S4 on C(1D3,2D3), permuting the four barycentric coordinates of
    both factors at once; a point's factor sets its dilation."""
    maps = [
        lambda p: (p[0], p[1], p[3], p[2], p[4]),
        lambda p: (p[0], p[1], p[0] + 2 * p[1] - p[2] - p[3] - p[4], p[2], p[3]),
    ]
    index = {p: i for i, p in enumerate(cfg.points)}
    return SymmetryGroup.from_generators(cfg, [tuple(index[f(p)] for p in cfg.points) for f in maps])


# (configuration, its group) for walk states where the skip is tested
_SKIP_WALKS = {
    **{name: (make_config, partial(builtin_symmetry, kind)) for name, (make_config, kind) in _WALKS.items()},
    "C(1D3,2D3)/S4": (
        lambda: cayley_config(simplex_lattice_points(3, 1), simplex_lattice_points(3, 2)),
        _tetrahedral_s4,
    ),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_SKIP_WALKS)), st.integers(1, 60), st.data())
def test_expand_drops_exactly_the_children_that_are_recorded_keys(name, limit, data):
    # A walk state from a limited run: expanding a recorded regular class
    # against the run's visited keys gives, in order, what expanding it
    # against no keys gives, less the children whose own masks pack to a
    # visited key; such a child is its own canonical form.
    make_config, make_group = _SKIP_WALKS[name]
    cfg = make_config()
    en = Enumerator(cfg, make_group(cfg))
    list(en.run(limit=limit))
    walk, pack = en.walk, en.walk.codec.pack
    assert walk.known is en.visited
    key = data.draw(st.sampled_from(en.regular))
    nodes = [(key, walk.certify([key])[0])]
    kept = walk.expand(nodes)
    walk.known = {}
    every = walk.expand(nodes)
    assert kept == [(k, carry) for k, carry in every if pack(carry[2]) not in en.visited]
    for k, (_witness, _flip, child, _element) in every:
        if pack(child) in en.visited:
            assert walk.key(child) == pack(child) == k


def test_a_quadric_walk_canonicalizes_few_children(monkeypatch):
    # A child that packs to a recorded key is dropped before it is
    # canonicalized: the first 1,000 quadric classes take 1,464 canonical
    # forms, against 2,385 when every child is canonicalized.
    calls = []
    canonical = RelabelContext.canonical

    def counted(self, masks):
        calls.append(masks)
        return canonical(self, masks)

    monkeypatch.setattr(RelabelContext, "canonical", counted)
    make_config, kind = _WALKS["C(2D3,2D3)/S4xZ2"]
    cfg = make_config()
    assert len(list(Enumerator(cfg, builtin_symmetry(kind, cfg)).run(limit=1000))) == 1000
    assert len(calls) <= 1500


@pytest.mark.parametrize("make_config, kind, visited, regular", [
    (cubic_polygon, "trivial", 1166, 1166),
    (cubic_polygon, "simplex-3d2", 213, 213),
    (lambda: nested_triangles()[0], "trivial", 18, 16),
], ids=["3D2/trivial", "3D2/S3", "nested/trivial"])
def test_carried_run_visits_the_cold_walks_classes(make_config, kind, visited, regular):
    cfg = make_config()
    grp = builtin_symmetry(kind, cfg)
    en = Enumerator(cfg, grp)
    list(en.run())
    unpack = en.walk.codec.unpack
    verdicts = {unpack(key): ok for key, ok in en.visited.items()}
    assert verdicts == oracles.cold_walk(cfg, grp.elements)
    assert (len(verdicts), sum(verdicts.values())) == (visited, regular)
    s = en.stats()
    assert s["carried"] > 0 and s["carried"] + s["lifted"] + s["solved"] == visited


def test_resumed_frontier_solves_each_expanded_class_once(tmp_path):
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", cfg)
    ckpt = str(tmp_path / "run.ckpt.json")
    list(Enumerator(cfg, grp, checkpoint_path=ckpt).run(limit=300))
    en = load_checkpoint(ckpt)
    resumed_frontier = en.regular[en.expanded :]
    visited_before = len(en.visited)
    list(en.run())
    s = en.stats()
    assert s["carried"] + s["lifted"] + s["solved"] == len(en.visited) - visited_before + len(resumed_frontier)


def test_resumed_quadric_frontier_is_certified_by_lifted_heights(tmp_path):
    # Halted at 500 and resumed to 1,000, the quadric run made 7 + 81
    # simplex calls when a resumed frontier class could only be solved;
    # lifted heights certify nearly all of them.
    make_config, kind = _WALKS["C(2D3,2D3)/S4xZ2"]
    cfg = make_config()
    ckpt = str(tmp_path / "q.ckpt")
    first = Enumerator(cfg, builtin_symmetry(kind, cfg), checkpoint_path=ckpt)
    assert len(list(first.run(limit=500))) == 500
    resumed = load_checkpoint(ckpt)
    assert len(list(resumed.run(limit=1000))) == 500
    assert resumed.stats()["lifted"] >= 80
    assert first.stats()["solved"] + resumed.stats()["solved"] <= 10


def test_nested_triangles_refused_classes_come_from_gordan_certificates():
    # The two non-regular classes get no lifted witness; the simplex
    # decides each with a Gordan vector y >= 0, y != 0, y A = 0.
    cfg = nested_triangles()[0]
    en = Enumerator(cfg, builtin_symmetry("trivial", cfg))
    list(en.run())
    walk, unpack = en.walk, en.walk.codec.unpack
    refused = [unpack(key) for key, ok in en.visited.items() if not ok]
    assert len(refused) == 2
    for masks in refused:
        walls = walk.engine.wall_circuits(masks)
        rows = sorted(set(walk.engine.regularity_rows(masks, walls=walls)))
        assert relaxed_witness(rows, walk.engine.lift(masks, walls)) is None
        witness, y = _simplex(rows)
        assert witness is None and min(y) >= 0 and any(y)
        assert not any(sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(len(rows[0])))
        before = walk.counts.copy()
        assert walk._verdict(masks, walls) is None
        assert walk.counts - before == Counter(solved=1)
