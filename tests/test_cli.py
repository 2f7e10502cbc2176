import json
from importlib import resources

import pytest

from tropcay.cli import (
    EXIT_CHECKPOINT,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_NONUNIMODULAR,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from tropcay.enumeration import Enumerator
from tropcay.formats import config_from_dict, load_json


def data_pair(name):
    pkg = resources.files("tropcay.data") / "pairs"
    return str(pkg / f"{name}_f1.json"), str(pkg / f"{name}_f2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_simplex(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(out))
    assert code == EXIT_OK
    doc = load_json(out)
    assert len(doc["points"]) == 10
    assert doc["labels"][0] == "A"


def test_config_cayley_counts(tmp_path, capsys):
    out22 = tmp_path / "c22.json"
    code, _, _ = run(capsys, "config", "cayley", "--d", "2", "--e", "2", "--out", str(out22))
    assert code == EXIT_OK and len(load_json(out22)["points"]) == 20
    out21 = tmp_path / "c21.json"
    code, _, _ = run(capsys, "config", "cayley", "--d", "2", "--e", "1", "--out", str(out21))
    assert code == EXIT_OK and len(load_json(out21)["points"]) == 14


def test_config_to_stdout(capsys):
    code, out, _ = run(capsys, "config", "simplex", "--dim", "1", "--dilation", "1")
    assert code == EXIT_OK
    assert json.loads(out)["points"] == [[0], [1]]


def test_config_roundtrip(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "config", "cayley", "--d", "2", "--e", "2", "--out", str(out))
    cfg = config_from_dict(load_json(out))
    assert cfg.cayley_sizes == (10, 10)
    assert cfg.affine_dim() == 4


def test_tropicalize_first_pair(tmp_path, capsys):
    f1, f2 = data_pair("cycle03")
    out = tmp_path / "report"
    code, _, err = run(capsys, "tropicalize", f1, f2, "--out", str(out))
    assert code == EXIT_OK
    doc = load_json(out / "report.json")
    assert doc["cycle_length"] == 3
    assert doc["mixed_count"] == 16 and doc["unmixed_count"] == 16
    assert doc["color_counts"] == {"blue": 8, "red": 8}
    assert len(doc["cells"]) == 32
    assert doc["triangulation_marked"].count("(b)") == 8
    assert doc["triangulation_marked"].count("(r)") == 8
    dot = (out / "curve.dot").read_text()
    assert "lightblue" in dot and "lightcoral" in dot
    assert "cycle_length=3" in err


def test_tropicalize_two_adic_pair(tmp_path, capsys):
    f1, f2 = data_pair("twoadic")
    code, _, _ = run(capsys, "tropicalize", f1, f2, "--out", str(tmp_path / "r"))
    assert code == EXIT_OK
    assert load_json(tmp_path / "r" / "report.json")["cycle_length"] == 8


def test_tropicalize_degenerate_exit_code(tmp_path, capsys):
    flat = {
        "format": "tropcay/valued-polynomial/1",
        "degree": 1,
        "terms": [
            {"exp": [0, 0, 0], "val": "0"},
            {"exp": [1, 0, 0], "val": "0"},
            {"exp": [0, 1, 0], "val": "0"},
            {"exp": [0, 0, 1], "val": "0"},
        ],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(flat))
    code, _, err = run(capsys, "tropicalize", str(path), str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_DEGENERATE
    assert "degenerate" in err


def test_tropicalize_non_unimodular_exit_code(tmp_path, capsys):
    f1_terms = {
        (0, 0, 0): 7, (0, 0, 1): 9, (0, 1, 0): 5, (1, 0, 0): 4, (0, 0, 2): 2,
        (0, 1, 1): 2, (0, 2, 0): 0, (1, 0, 1): 5, (1, 1, 0): 8, (2, 0, 0): 7,
    }
    f2_terms = {
        (0, 0, 0): 9, (0, 0, 1): 1, (0, 1, 0): 5, (1, 0, 0): 8, (0, 0, 2): 9,
        (0, 1, 1): 0, (0, 2, 0): 6, (1, 0, 1): 2, (1, 1, 0): 7, (2, 0, 0): 6,
    }

    def write(path, terms):
        doc = {
            "format": "tropcay/valued-polynomial/1",
            "degree": 2,
            "terms": [{"exp": list(e), "val": str(v)} for e, v in sorted(terms.items())],
        }
        path.write_text(json.dumps(doc))

    p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
    write(p1, f1_terms)
    write(p2, f2_terms)
    code, _, err = run(capsys, "tropicalize", str(p1), str(p2), "--out", str(tmp_path / "o"))
    assert code == EXIT_NONUNIMODULAR
    assert "not unimodular" in err


def test_tropicalize_missing_file_is_io_error(tmp_path, capsys):
    code, _, _ = run(capsys, "tropicalize", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"))
    assert code == EXIT_IO


def test_enumerate_square(tmp_path, capsys):
    cfg_path = tmp_path / "sq.json"
    cfg_doc = {
        "format": "tropcay/point-configuration/1",
        "ambient_dim": 2,
        "points": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "labels": ["A", "B", "C", "D"],
    }
    cfg_path.write_text(json.dumps(cfg_doc))
    code, out, _ = run(capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 2
    assert all("cells" in l and "text" in l for l in lines)


def test_enumerate_planar_79_and_18(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    code, out, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial", "--unimodular"
    )
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 79
    code, out, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "s3", "--unimodular"
    )
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 18


def test_enumerate_resume_flow(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    ckpt = tmp_path / "run.ckpt"
    out1 = tmp_path / "first.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial",
        "--unimodular", "--checkpoint", str(ckpt), "--limit", "10", "--out", str(out1),
    )
    assert code == EXIT_OK
    first = out1.read_text().strip().splitlines()
    assert len(first) >= 10
    out2 = tmp_path / "rest.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--out", str(out2),
    )
    assert code == EXIT_OK
    rest = out2.read_text().strip().splitlines()
    texts = {json.loads(l)["text"] for l in first} | {json.loads(l)["text"] for l in rest}
    assert len(first) + len(rest) == 79
    assert len(texts) == 79


def test_enumerate_resume_keeps_checkpoint_every(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    ckpt = tmp_path / "run.ckpt"
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial", "--unimodular",
        "--checkpoint", str(ckpt), "--checkpoint-every", "5", "--limit", "10",
        "--out", str(tmp_path / "first.jsonl"),
    )
    writes = []
    write = Enumerator._write_checkpoint

    def spy(self, path=None):
        writes.append(self.emitted)
        write(self, path)

    monkeypatch.setattr(Enumerator, "_write_checkpoint", spy)
    code, _, _ = run(
        capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--checkpoint-every", "5",
        "--out", str(tmp_path / "rest.jsonl"),
    )
    assert code == EXIT_OK
    assert writes[-1] == 79
    # periodic writes at the requested cadence, then the final one
    assert len(writes) >= 3
    assert all(b - a >= 5 for a, b in zip(writes, writes[1:-1]))


def test_enumerate_resume_wrong_config_exit_5(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    ckpt = tmp_path / "c.ckpt"
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial",
        "--checkpoint", str(ckpt), "--limit", "2",
    )
    other = tmp_path / "sq.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "1", "--out", str(other))
    code, _, err = run(
        capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--config", str(other),
    )
    assert code == EXIT_CHECKPOINT
    assert "mismatch" in err


def test_classify_planar_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    stream = tmp_path / "tris.jsonl"
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial",
        "--unimodular", "--out", str(stream),
    )
    out_dir = tmp_path / "classes"
    code, _, err = run(
        capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(out_dir),
    )
    assert code == EXIT_OK
    doc = load_json(out_dir / "classes.json")
    assert len(doc["classes"]) == 18
    assert sum(c["members"] for c in doc["classes"]) == 79
    hist = {}
    for c in doc["classes"]:
        hist[c["cycle_length"]] = hist.get(c["cycle_length"], 0) + 1
    assert hist == {3: 2, 4: 4, 5: 4, 6: 4, 7: 2, 8: 1, 9: 1}
    lengths = [c["cycle_length"] for c in doc["classes"]]
    assert lengths == sorted(lengths)
    assert (out_dir / "atlas.txt").exists()
    assert len(list(out_dir.glob("class_*.dot"))) == 18
    atlas = (out_dir / "atlas.txt").read_text()
    assert "A = (0, 0)" in atlas


def test_classify_reports_malformed_lines_and_continues(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    stream = tmp_path / "bad.jsonl"
    good = None
    code, out, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "s3", "--unimodular"
    )
    good = out.strip().splitlines()[0]
    stream.write_text(good + "\n" + "not json at all\n" + good + "\n")
    out_dir = tmp_path / "cls"
    code, _, err = run(
        capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(out_dir),
    )
    assert code == EXIT_OK
    assert "line 2" in err
    doc = load_json(out_dir / "classes.json")
    assert sum(c["members"] for c in doc["classes"]) == 2


def test_classify_jobs_parallel_matches_serial(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    stream = tmp_path / "tris.jsonl"
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "s3",
        "--unimodular", "--out", str(stream),
    )
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    run(capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(serial_dir))
    run(capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(parallel_dir), "--jobs", "4")
    a = load_json(serial_dir / "classes.json")
    b = load_json(parallel_dir / "classes.json")
    assert a == b


def test_classify_empty_input(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    out_dir = tmp_path / "cls"
    code, _, _ = run(capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(out_dir))
    assert code == EXIT_OK
    assert load_json(out_dir / "classes.json")["classes"] == []


def test_census_cli(capsys):
    code, out, _ = run(capsys, "census", "--v", "9", "--e", "9", "--max-degree", "3", "--convention", "simple")
    assert code == EXIT_OK and out.strip() == "80"
    code, out, _ = run(capsys, "census", "--v", "3", "--e", "3", "--max-degree", "3", "--convention", "simple")
    assert code == EXIT_OK and out.strip() == "1"
    code, out, _ = run(capsys, "census", "--v", "2", "--e", "1", "--max-degree", "3", "--convention", "simple")
    assert code == EXIT_OK and out.strip() == "1"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--v", "9"])
    assert exc.value.code == EXIT_USAGE
