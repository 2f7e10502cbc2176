import os

import pytest

from tropcay.errors import CheckpointMismatchError
from tropcay.geometry import PointConfiguration, simplex_lattice_points
from tropcay.triangulation import (
    apply_symmetry,
    builtin_symmetry,
    is_regular,
    is_unimodular,
)
from tropcay.enumeration import (
    EnumerationFilters,
    Enumerator,
    enumerate_triangulations,
    load_checkpoint,
    resume,
    verify_closure,
)


def square_config():
    return PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1)), ("A", "B", "C", "D"))


def cubic_polygon():
    return simplex_lattice_points(2, 3)


def cell_sets(triangulations):
    return sorted(t.cells for t in triangulations)


def test_filters_must_require_regular():
    with pytest.raises(ValueError):
        EnumerationFilters(require_regular=False)


def test_square_has_two_triangulations():
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    out = list(enumerate_triangulations(cfg, grp))
    assert len(out) == 2


def test_cubic_polygon_79_unimodular():
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", cfg)
    en = Enumerator(cfg, grp, EnumerationFilters(require_unimodular=True))
    out = list(en.run())
    assert len(out) == 79
    assert en.complete
    assert all(is_unimodular(t) for t in out)
    assert all(t.is_full() for t in out)


def test_cubic_polygon_18_orbits_under_s3():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    out = list(enumerate_triangulations(cfg, grp, EnumerationFilters(require_unimodular=True)))
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
    for t in enumerate_triangulations(cfg, grp):
        assert is_regular(t) is not None


def test_full_filter():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    full = list(enumerate_triangulations(cfg, grp, EnumerationFilters(require_full=True)))
    assert all(t.is_full() for t in full)
    unimod = list(
        enumerate_triangulations(cfg, grp, EnumerationFilters(require_unimodular=True))
    )
    # unimodular triangulations use every lattice point, so they are full
    full_sets = {t.cells for t in full}
    assert all(t.cells in full_sets for t in unimod)


def test_output_set_independent_of_jobs():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    filters = EnumerationFilters(require_unimodular=True)
    serial = cell_sets(enumerate_triangulations(cfg, grp, filters, jobs=1))
    parallel = cell_sets(enumerate_triangulations(cfg, grp, filters, jobs=8))
    assert serial == parallel


def test_local_verdicts_match_global_regularity():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    en = Enumerator(cfg, grp)
    list(en.run())
    assert en.complete
    engine, unpack = en.walk.engine, en.walk.codec.unpack
    for key, regular in en.visited.items():
        assert regular == (engine.is_regular(unpack(key), mode="global") is not None)


def test_halt_and_resume_matches_fresh_run(tmp_path):
    cfg = cubic_polygon()
    grp = builtin_symmetry("trivial", cfg)
    filters = EnumerationFilters(require_unimodular=True)

    fresh = cell_sets(enumerate_triangulations(cfg, grp, filters))
    assert len(fresh) == 79

    ckpt = str(tmp_path / "run.ckpt.json")
    en = Enumerator(cfg, grp, filters, checkpoint_path=ckpt)
    first = [t for t in en.run(limit=10)]
    assert len(first) >= 10
    resumed = list(resume(ckpt))
    combined = cell_sets(first + resumed)
    assert combined == fresh
    assert len(first) + len(resumed) == 79  # no duplicates across the halt


def test_resume_completed_checkpoint_is_empty(tmp_path):
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    ckpt = str(tmp_path / "done.ckpt.json")
    en = Enumerator(cfg, grp, checkpoint_path=ckpt)
    list(en.run())
    assert en.complete
    assert list(resume(ckpt)) == []


def test_resume_rejects_wrong_configuration(tmp_path):
    cfg = square_config()
    grp = builtin_symmetry("trivial", cfg)
    ckpt = str(tmp_path / "sq.ckpt.json")
    en = Enumerator(cfg, grp, checkpoint_path=ckpt)
    list(en.run(limit=1))
    other = cubic_polygon()
    with pytest.raises(CheckpointMismatchError):
        list(resume(ckpt, config=other))


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
    with pytest.raises(CheckpointMismatchError):
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
