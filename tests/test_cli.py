import base64
import hashlib
import itertools
import json
import os
import subprocess
import sys
import types
from importlib import resources

import pytest

import tropcay
from tropcay.cli import (
    EXIT_CHECKPOINT,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_NONUNIMODULAR,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from tropcay.enumeration import Enumerator, _digest
from tropcay.formats import config_from_dict, load_json, parse_triangulation_line
from tropcay.triangulation import FlipEngine, Triangulation, is_unimodular


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


# SHA-256 of report.json, curve.dot and the stderr line of `tropcay tropicalize`
# for every bundled pair, as produced by the exhaustive subset search.
_PAIR_DIGESTS = {
    "cycle03": (
        "2d922764ea6d14ac1d3d34e1465ad5f691e75bb5825654a2cadc86b5fc4668fd",
        "cf83ae480eb5427ee2eeefef635bc700f9975053802ae5b123e09636b750d607",
        "f151972328287c3acd2567ac304f8831866d3d218879513bef8a93e8fcb1672d",
    ),
    "cycle04": (
        "0c2c610a3fc106d4e1d425ef1f38d2af2c65bfac91d9efdc0c4d6e6896b62e74",
        "f3e4f7baa005cc18079a1099e32e53da9b3eb9b1c3999493cea43a26a174de67",
        "8157b7c2dca4328e73e260d9c06b049f3288837564320a14ab226746692e9b85",
    ),
    "cycle05": (
        "d92d8f35a2d38135e01a3db543d3882185ced7fe361e1a1c1fe442c36ee44ad5",
        "3fbefb668ef26e1c20da6eecda78842684db9049003205dea756a6183a1ce282",
        "7da1b4af7381ff46493cfe3e1496abafe678e37dcae960444807d1210c97c73a",
    ),
    "cycle06": (
        "02b0cc6edfece4ece3922acb17e344f7e5b95b30f4989a380d0ea9bf825c1b9c",
        "ed45aad2e8de66dc2756e8591fbbf7be636472016f64d6ed8706c67aa6dd080a",
        "deb60e17e6cc30ef7a09b4378fdfa1c1d2dbe8ba9e98e33819e46b7307cde40c",
    ),
    "cycle07": (
        "6f931c3bde46aeea47f982f470fe3ebb8f0eac343cfda9eb1c84581d36be7d34",
        "d284ebb54e17db84f1cc7b38aa8c12488ffd0d48412b623d70391e152726bce3",
        "2937a7e9d323ccbccf2c1051d39544e7bdeba45a1cd00dd963edcaba7009ea99",
    ),
    "cycle08": (
        "e8cf871c2457e72b9a6ca1c32f310a88c0c413ae640a8af54a3e3d379c8b51be",
        "43e9fdb154c3fab8636edb6c6b4019af359659ffcff5bcf0b95040219719001b",
        "11b20f892dcd97f66df1b471e4dd91b722251a752dc15b7e988a73974b56982b",
    ),
    "cycle09": (
        "309aed81a278db46c424dfc78e8e68c4f305e65b1cbd5815f3eedf905aa3cfd1",
        "ea5b2a1a1551fe2e6b2da9dd4e9b1785cf62c5e6dda68097dcbe2f19b40e74c8",
        "c9fe7b4095b66ea665e8e760d6a709a85addb0907baacf2bcd168008696302ee",
    ),
    "cycle10": (
        "ed3375158fed0e4ee351a0410254e8421b4bc59509bd0f6804b076de7a0fabeb",
        "d5435df34bfa223ae8768958cf699b76f9ec19962081975a30495ae5a336521b",
        "3a58c587022aa5db8d7e5bb653604994aaa9882baf6020a8093fc487300e8789",
    ),
    "cycle11": (
        "9d9c7c3399a793a60bc800eab0a08cd910502d4bb5ce01929729e4a87bf35d6c",
        "052c03fd1d1264d4f51405f8daead2977cdc908b0fd7fde7ae790d0a6597551b",
        "2241853cfe53df12382240ee038b26fd355b5bfe5bf2612b62f4a3a3cc0050f7",
    ),
    "cycle12": (
        "f31e1c6c8fcd2aa94127bc9b31ffa7cd2a5934579cf8c1c48f86deb9bb100ff7",
        "cf17aacbd45e144a94b3499ee896d174e3ec6480b8d82238646366623f9c7093",
        "d069950de73ba9159c6156268c667056d0af160aa6eb86f158ee6687d5dabdb3",
    ),
    "cycle13": (
        "da5786e90bb5c8f09e13b3ca809a02d02f6a8cf118593cdf7e156948677f6ea3",
        "9eed19f1105976e5a2aeb2c8591eb3b01fe36f2acf9ee7ab633c7294a9295836",
        "0007bc630de404ac93113ef570c26ff6fa6b46727574a2db163ba263fa30f2ec",
    ),
    "cycle14": (
        "a694afe0357bcf2ca2e8bc329771f060c524bdfe024086f42b3e3814b9c5615d",
        "5f0ecbcdedd817057238a9c1e51c6708c5f62864cb6da27c5d0e3d62076e73e4",
        "852a5351c9a3b2229f0c9816da4fc5cf1f30680beb95b146a36a30f4cf7d29bc",
    ),
    "cycle15": (
        "8a773468a85ef73c82b114ba26f4f2959a22876ffe31e29c430ee2ff5bb7bcee",
        "1df4dce86bd72539002b7f7d431013468e0c476de7596b784d56dfe657c53c4d",
        "868cd54ea93bbcbd89fff7102654a61aeeb23ecdd88bcabd60fc987850ce2303",
    ),
    "cycle16": (
        "390a9deffb7ac46448c1be334b3477aa5334272de8ee330613a65f253d668c15",
        "c8524a35bdb7c7e2cff07648392aacdf4b21b83ad5b91a26f65a26eb74439b26",
        "e78b0d51eb5a1e8ba2d7cb8f58f38e3093eba0e0299770a2fd0f18fdec6bad2f",
    ),
    "twoadic": (
        "6fecac9e72280334273c7241c9a3c48cb065e4e5fd5d611ea42ecfb0a8ca2c1b",
        "8e0dfc493e9ee0ee9e95361075895f8b236e7decbdef93c13de0d97593223d87",
        "11b20f892dcd97f66df1b471e4dd91b722251a752dc15b7e988a73974b56982b",
    ),
    "sample21": (
        "f420cdebb2672c186444f8b08c598a8f5d7f140d8058fd1c7dbb8658047a97eb",
        "f0fbe76046fb62e1f3b12f74816df3525d4406090d3d81d315a9a1f7ab3aff00",
        "749294a22f4bf728b09e692004260f8e681c12e72fb14ba38cb8ffe3ba73fd25",
    ),
}


@pytest.mark.parametrize("name", sorted(_PAIR_DIGESTS))
def test_tropicalize_bundled_pair_outputs_are_pinned(tmp_path, capsys, name):
    f1, f2 = data_pair(name)
    code, _, err = run(capsys, "tropicalize", f1, f2, "--out", str(tmp_path))
    assert code == EXIT_OK
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            (tmp_path / "report.json").read_bytes(),
            (tmp_path / "curve.dot").read_bytes(),
            err.encode(),
        )
    )
    assert digests == _PAIR_DIGESTS[name]


def _polynomial_doc():
    f1, _ = data_pair("sample21")
    return load_json(f1)


def _edit_term(field, value):
    def edit(doc):
        doc["terms"][0][field] = value
        return doc
    return edit


def _drop_term_field(field):
    def edit(doc):
        del doc["terms"][0][field]
        return doc
    return edit


def _edit_exponent(value):
    def edit(doc):
        assert doc["terms"][1]["exp"] == [0, 0, 1]
        doc["terms"][1]["exp"][2] = value
        return doc
    return edit


_MALFORMED_POLYNOMIALS = {
    "wrong-format": lambda doc: {**doc, "format": "tropcay/point-configuration/1"},
    "no-degree": lambda doc: {k: v for k, v in doc.items() if k != "degree"},
    "term-without-exp": _drop_term_field("exp"),
    "valuation-abc": _edit_term("val", "abc"),
    "valuation-1/0": _edit_term("val", "1/0"),
    "degree-0": lambda doc: {**doc, "degree": 0},
    "degree-2.5": lambda doc: {**doc, "degree": 2.5},
    "exponent-1.5": _edit_exponent(1.5),
    "exponent-true": _edit_exponent(True),
    "list-not-object": lambda doc: [doc],
}


def _assert_usage_error(code, err):
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", sorted(_MALFORMED_POLYNOMIALS))
def test_tropicalize_malformed_polynomial_exit_64(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_MALFORMED_POLYNOMIALS[case](_polynomial_doc())))
    _, good = data_pair("sample21")
    code, _, err = run(capsys, "tropicalize", str(bad), good, "--out", str(tmp_path / "o"))
    _assert_usage_error(code, err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("order", ["a,b", "0,1,2"])
def test_enumerate_bad_placing_order_exit_64(tmp_path, capsys, order):
    cfg = tmp_path / "s.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg))
    code, out, err = run(capsys, "enumerate", "--config", str(cfg), "--placing-order", order, "--limit", "2")
    _assert_usage_error(code, err)
    assert out == ""


def test_enumerate_config_point_of_wrong_dimension_exit_64(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "format": "tropcay/point-configuration/1",
        "ambient_dim": 2,
        "points": [[0, 0], [1, 0], [0, 1, 5]],
        "labels": ["A", "B", "C"],
    }))
    code, _, err = run(capsys, "enumerate", "--config", str(cfg), "--limit", "2")
    _assert_usage_error(code, err)


@pytest.mark.parametrize("sizes", [[5, 15], [11, 9]], ids=["5-15", "11-9"])
@pytest.mark.parametrize("command", ["enumerate", "classify"])
def test_cayley_sizes_that_do_not_match_the_points_exit_64(tmp_path, capsys, command, sizes):
    # The slicing splits the cells by index, so wrong sizes would give
    # wrong cell types and colours.
    cfg = tmp_path / "c22.json"
    stream = tmp_path / "q.jsonl"
    run(capsys, "config", "cayley", "--d", "2", "--e", "2", "--out", str(cfg))
    run(capsys, "enumerate", "--config", str(cfg), "--group", "s4xz2", "--unimodular", "--limit", "20", "--out", str(stream))
    doc = load_json(cfg)
    doc["cayley_sizes"] = sizes
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "enumerate": ["enumerate", "--config", str(cfg), "--limit", "2", "--out", str(out)],
        "classify": ["classify", "--config", str(cfg), "--in", str(stream), "--out", str(out)],
    }[command]
    code, _, err = run(capsys, *argv)
    _assert_usage_error(code, err)
    assert "cayley_sizes" in err
    assert not out.exists()


# Unit-square labels that cell text cannot name: text_to_cells reads one
# letter and digits per point.
_BAD_LABELS = {
    "integer": [0, 1, 2, 3],
    "two-letters": ["A", "B", "AB", "C"],
    "digit-first": ["A", "B", "1x", "C"],
    "string-not-list": "ABCD",
}


@pytest.mark.parametrize("case", sorted(_BAD_LABELS))
def test_enumerate_config_bad_labels_exit_64(tmp_path, capsys, case):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "format": "tropcay/point-configuration/1",
        "ambient_dim": 2,
        "points": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "labels": _BAD_LABELS[case],
    }))
    code, out, err = run(capsys, "enumerate", "--config", str(cfg))
    _assert_usage_error(code, err)
    assert out == ""


# Square configurations that int() would read as the unit square.
_NON_INTEGER_CONFIGS = {
    "coordinate-1.5": {"ambient_dim": 2, "points": [[0, 0], [1.5, 0], [0, 1], [1, 1]]},
    "coordinate-true": {"ambient_dim": 2, "points": [[0, 0], [1, 0], [0, 1], [True, 1]]},
    "ambient-dim-2.0": {"ambient_dim": 2.0, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]},
}


@pytest.mark.parametrize("case", sorted(_NON_INTEGER_CONFIGS))
def test_enumerate_config_non_integer_exit_64(tmp_path, capsys, case):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "format": "tropcay/point-configuration/1",
        "labels": ["A", "B", "C", "D"],
        **_NON_INTEGER_CONFIGS[case],
    }))
    code, out, err = run(capsys, "enumerate", "--config", str(cfg))
    _assert_usage_error(code, err)
    assert out == ""


# "{dir}" is a scratch directory holding a 3D2 configuration "3d2.json"
# and an empty triangulation stream "empty.jsonl".
_MALFORMED_ARGS = {
    "census-13-vertices": ["census", "--v", "13", "--e", "12"],
    "census-0-vertices": ["census", "--v", "0", "--e", "1"],
    "census-max-degree-negative": ["census", "--v", "3", "--e", "2", "--max-degree", "-1"],
    "simplex-dim-0": ["config", "simplex", "--dim", "0", "--dilation", "1"],
    "cayley-dilation-0": ["config", "cayley", "--d", "0", "--e", "2"],
    "enumerate-jobs-negative": ["enumerate", "--config", "{dir}/3d2.json", "--jobs", "-3", "--limit", "2"],
    "enumerate-checkpoint-every-0": [
        "enumerate", "--config", "{dir}/3d2.json", "--checkpoint-every", "0", "--limit", "2",
    ],
    "enumerate-limit-negative": ["enumerate", "--config", "{dir}/3d2.json", "--limit", "-1"],
    "resume-jobs-negative": ["enumerate", "--resume", "--checkpoint", "{dir}/run.ckpt", "--jobs", "-3"],
    "classify-jobs-negative": [
        "classify", "--config", "{dir}/3d2.json", "--in", "{dir}/empty.jsonl", "--out", "{dir}/out",
        "--jobs", "-3",
    ],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ARGS))
def test_out_of_range_option_exit_64(tmp_path, capsys, case):
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(tmp_path / "3d2.json"))
    (tmp_path / "empty.jsonl").write_text("")
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in _MALFORMED_ARGS[case]))
    _assert_usage_error(code, err)
    assert out == ""


def test_enumerate_group_of_another_configuration_exit_64(tmp_path, capsys):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    code, _, err = run(capsys, "enumerate", "--config", str(cfg_path), "--group", "s4xz2")
    _assert_usage_error(code, err)


def test_enumerate_one_point_configuration_exit_64(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "format": "tropcay/point-configuration/1",
        "ambient_dim": 2,
        "points": [[0, 0]],
        "labels": ["A"],
    }))
    code, _, err = run(capsys, "enumerate", "--config", str(cfg))
    _assert_usage_error(code, err)


def test_enumerate_loads_no_numpy_or_scipy(tmp_path, capsys):
    cfg, out = tmp_path / "3d2.json", tmp_path / "out.jsonl"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg))
    script = (
        "import sys\n"
        "from tropcay.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, [m for m in ('numpy', 'scipy') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(tropcay.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "enumerate", "--config", str(cfg), "--limit", "20", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_OK), "[]"]
    assert len(out.read_text().splitlines()) == 20


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

    def spy(self):
        writes.append(self.emitted)
        write(self)

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


@pytest.mark.parametrize("option", [
    ["--group", "trivial"], ["--unimodular"], ["--full"], ["--placing-order", "9,8,7,6,5,4,3,2,1,0"],
], ids=lambda option: option[0])
def test_enumerate_resume_refuses_run_options_exit_64(tmp_path, capsys, option):
    # The checkpoint fixes the group, filters and seed; resuming must not
    # silently drop an option that would change them.
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    ckpt = tmp_path / "run.ckpt"
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "s3", "--unimodular",
        "--checkpoint", str(ckpt), "--limit", "5", "--out", str(tmp_path / "first.jsonl"),
    )
    before = ckpt.read_bytes()
    code, out, err = run(capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), *option)
    _assert_usage_error(code, err)
    assert option[0] in err
    assert out == ""
    assert ckpt.read_bytes() == before


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_enumerate_negative_limit_leaves_out_untouched(tmp_path, capsys, resume):
    # A usage error must not truncate the output file it never writes to.
    cfg_path, ckpt = tmp_path / "3d2.json", tmp_path / "run.ckpt"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--limit", "5",
        "--out", str(tmp_path / "first.jsonl"),
    )
    out = tmp_path / "keep.jsonl"
    out.write_text("old data\n")
    before = ckpt.read_bytes()
    source = ["--resume", "--limit", "-5"] if resume else ["--config", str(cfg_path), "--limit", "-1"]
    code, _, err = run(capsys, "enumerate", *source, "--checkpoint", str(ckpt), "--out", str(out))
    _assert_usage_error(code, err)
    assert "limit must be at least 0" in err
    assert out.read_text() == "old data\n"
    assert ckpt.read_bytes() == before


@pytest.mark.parametrize("first_jobs, resume_jobs", [(2, 1), (1, 2)])
def test_enumerate_halt_and_resume_across_job_counts(tmp_path, capsys, monkeypatch, first_jobs, resume_jobs):
    writes = []
    write = Enumerator._write_checkpoint

    def spy(self):
        # each written checkpoint lists every key once, and its frontier and cursor are the run's
        write(self)
        doc = load_json(self.checkpoint_path)
        keys = doc["regular"] + doc["nonregular"]
        assert len(set(keys)) == len(keys)
        assert len(doc["regular"]) - doc["expanded"] == self.stats()["frontier"]
        assert doc["expanded"] <= doc["shown"] == self.shown <= len(doc["regular"])
        writes.append(self.emitted)

    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    # a run halted before its first class resumes from its own seed, not the default one
    orders = {"default": [], "permuted": ["--placing-order", "4,0,9,6,1,8,2,7,3,5"]}
    fresh = {}
    for name, order in orders.items():
        code, out, _ = run(capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial", "--unimodular", *order)
        assert code == EXIT_OK
        fresh[name] = [json.loads(line)["text"] for line in out.splitlines()]
        assert len(fresh[name]) == 79
    assert fresh["default"] != fresh["permuted"]
    monkeypatch.setattr(Enumerator, "_write_checkpoint", spy)
    # the 37th of the 79 lies inside a --jobs 2 wave, whose later classes are emitted on resume
    cases = [("default", limit) for limit in (0, 2, 10, 37)] + [("permuted", limit) for limit in (0, 5)]
    for name, limit in cases:
        ckpt = tmp_path / f"run-{name}{limit}.ckpt"
        out1, out2 = tmp_path / f"first-{name}{limit}.jsonl", tmp_path / f"rest-{name}{limit}.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial", "--unimodular", *orders[name],
            "--checkpoint", str(ckpt), "--limit", str(limit), "--jobs", str(first_jobs), "--out", str(out1),
        )
        assert code == EXIT_OK
        first = [json.loads(line)["text"] for line in out1.read_text().splitlines()]
        assert len(first) == limit
        code, _, _ = run(
            capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--jobs", str(resume_jobs),
            "--out", str(out2),
        )
        assert code == EXIT_OK
        rest = [json.loads(line)["text"] for line in out2.read_text().splitlines()]
        assert first + rest == fresh[name]  # the one-shot run's lines, in its order
    assert writes == [emitted for _name, limit in cases for emitted in (limit, 79)]


def test_enumerate_checkpoint_counts_only_lines_in_out(tmp_path, capsys, monkeypatch):
    # A checkpoint that counts lines still buffered in the process would,
    # after a kill, make the resumed run skip those classes for good.
    cfg_path, out = tmp_path / "3d2.json", tmp_path / "all.jsonl"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    writes = []
    write = Enumerator._write_checkpoint

    def spy(self):
        writes.append((self.emitted, out.read_bytes().count(b"\n")))
        write(self)

    monkeypatch.setattr(Enumerator, "_write_checkpoint", spy)
    code, _, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial",
        "--checkpoint", str(tmp_path / "run.ckpt"), "--checkpoint-every", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    assert len(writes) > 100 and writes[-1] == (1166, 1166)
    assert all(lines >= emitted for emitted, lines in writes)


def _edit(change, sign=False):
    """Damage a checkpoint's JSON; ``sign`` recomputes its digest so that
    the checks behind the digest are the ones that must refuse it."""

    def damage(text):
        doc = json.loads(text)
        change(doc)
        if sign:
            doc["digest"] = _digest(doc)
        return json.dumps(doc)

    return damage


def _flip_middle_byte(text):
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]


def _cut_frontier(doc):
    doc["regular"] = doc["regular"][: doc["expanded"] + 1]
    doc["emitted"] = 3


def _prefix_frontier_with_at(doc):
    # lenient base64 would drop the "@" and find the key
    doc["regular"][doc["expanded"]] = "@" + doc["regular"][doc["expanded"]]


def _as_format_2(doc):
    """The same state in the layout that stored the frontier, group and
    completion flag beside the keys."""
    doc.update(
        format="tropcay/checkpoint/2",
        group=[list(range(10))],
        visited_regular=doc.pop("regular"),
        visited_nonregular=doc.pop("nonregular"),
        complete=False,
    )
    doc["frontier"] = doc["visited_regular"][doc["expanded"] :]


def _as_format_3(doc):
    """The same state in the layout without the ``shown`` cursor."""
    doc.update(format="tropcay/checkpoint/3")
    del doc["shown"]


_DAMAGE = {
    "truncated": lambda text: text[:300],
    "flipped-byte": _flip_middle_byte,
    "bad-base64": _edit(lambda doc: doc.update(regular=["@@@"])),
    "cut-frontier": _edit(_cut_frontier),
    "bad-base64-signed": _edit(_prefix_frontier_with_at, sign=True),
    "format-2-signed": _edit(_as_format_2, sign=True),
    "format-3-signed": _edit(_as_format_3, sign=True),
    "key-twice-signed": _edit(lambda doc: doc["regular"].append(doc["regular"][0]), sign=True),
    "key-regular-and-nonregular-signed": _edit(
        lambda doc: doc["nonregular"].append(doc["regular"][0]), sign=True
    ),
    # int() would read these as counts
    "emitted-float-signed": _edit(lambda doc: doc.update(emitted=9.9), sign=True),
    "emitted-bool-signed": _edit(lambda doc: doc.update(emitted=True), sign=True),
    "emitted-negative-signed": _edit(lambda doc: doc.update(emitted=-1), sign=True),
    "expanded-string-signed": _edit(lambda doc: doc.update(expanded="3"), sign=True),
    # the frontier is regular[expanded:], so expanded must index the regular keys
    "expanded-negative-signed": _edit(lambda doc: doc.update(expanded=-1), sign=True),
    "expanded-above-regular-signed": _edit(
        lambda doc: doc.update(expanded=len(doc["regular"]) + 1), sign=True
    ),
    # every emission is a distinct regular class
    "emitted-above-regular-signed": _edit(
        lambda doc: doc.update(emitted=len(doc["regular"]) + 1), sign=True
    ),
    # the classes not yet shown, regular[shown:], lie inside the frontier, and each emission was shown
    "shown-missing-signed": _edit(lambda doc: doc.pop("shown"), sign=True),
    "shown-below-expanded-signed": _edit(lambda doc: doc.update(shown=doc["expanded"] - 1), sign=True),
    "shown-above-regular-signed": _edit(lambda doc: doc.update(shown=len(doc["regular"]) + 1), sign=True),
    "emitted-above-shown-signed": _edit(lambda doc: doc.update(emitted=doc["shown"] + 1), sign=True),
    # every checkpoint holds its seed
    "no-regular-key-signed": _edit(lambda doc: doc.update(regular=[], expanded=0, shown=0, emitted=0), sign=True),
    # the ten points of 3D2 do not have the Cayley layout
    "cayley-sizes-signed": _edit(lambda doc: doc["config"].update(cayley_sizes=[4, 6]), sign=True),
    "filter-string-signed": _edit(lambda doc: doc["filters"].update(require_unimodular="no"), sign=True),
    "filter-int-signed": _edit(lambda doc: doc["filters"].update(require_full=0), sign=True),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_enumerate_resume_damaged_checkpoint_exit_5(tmp_path, capsys, damage):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    ckpt = tmp_path / "run.ckpt"
    run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial", "--unimodular",
        "--checkpoint", str(ckpt), "--limit", "10", "--out", str(tmp_path / "first.jsonl"),
    )
    doc = json.loads(ckpt.read_text())
    assert doc["expanded"] < doc["shown"] < len(doc["regular"])  # each count damage is a real one
    damaged = _DAMAGE[damage](ckpt.read_text())
    ckpt.write_text(damaged)
    code, _, err = run(
        capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--out", str(tmp_path / "rest.jsonl"),
    )
    assert code == EXIT_CHECKPOINT
    assert "checkpoint" in err
    if damage.startswith("format-"):  # the message names the file's format
        assert json.loads(damaged)["format"] in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_resume_non_regular_frontier_class_exit_5(tmp_path, capsys, jobs):
    # A signed checkpoint that lists a non-regular class of the nested
    # triangles (18 classes, 16 regular) as regular: still to be shown
    # (regular[shown:]), where showing it solves its system, or shown and
    # waiting in the frontier, where expanding it does; either refuses it.
    cfg_path = tmp_path / "nested.json"
    cfg_path.write_text(json.dumps({
        "format": "tropcay/point-configuration/1",
        "ambient_dim": 2,
        "points": [[0, 0], [4, 0], [0, 4], [1, 1], [2, 1], [1, 2]],
        "labels": ["A", "B", "C", "a", "b", "c"],
    }))
    ckpt = tmp_path / "run.ckpt"
    code, out, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "trivial", "--checkpoint", str(ckpt),
    )
    assert code == EXIT_OK and len(out.splitlines()) == 16
    done = json.loads(ckpt.read_text())
    assert (len(done["regular"]), len(done["nonregular"]), done["expanded"], done["shown"]) == (16, 2, 16, 16)
    for shown in (16, 17):  # pending, then in the frontier
        doc = json.loads(json.dumps(done))
        doc["regular"].append(doc["nonregular"].pop())  # the whole frontier
        doc["shown"] = shown
        doc["digest"] = _digest(doc)
        ckpt.write_text(json.dumps(doc))
        code, out, err = run(capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--jobs", jobs)
        assert code == EXIT_CHECKPOINT
        assert "not regular" in err and out == ""


# Frontier keys that are not triangulations, each listed as the first
# unexpanded regular class in a signed checkpoint: (craft from key and
# width, message).
_CRAFTED_KEYS = {
    "cut-one-byte": (lambda key, w: key[:-1], "whole number"),
    "repeated-mask": (lambda key, w: key[:w] * 2 + key[2 * w :], "not a triangulation"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("craft", sorted(_CRAFTED_KEYS))
def test_enumerate_resume_frontier_key_not_a_triangulation_exit_5(tmp_path, capsys, craft, jobs):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    ckpt = tmp_path / "run.ckpt"
    code, _, _ = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "s3", "--limit", "20",
        "--checkpoint", str(ckpt),
    )
    assert code == EXIT_OK
    doc = json.loads(ckpt.read_text())
    change, message = _CRAFTED_KEYS[craft]
    head = doc["expanded"]
    bad = base64.b64encode(change(base64.b64decode(doc["regular"][head]), 2)).decode()  # 10 points: 2 bytes
    doc["regular"].insert(head, bad)  # it heads the frontier, among the classes already shown
    doc["shown"] += 1
    doc["digest"] = _digest(doc)
    ckpt.write_text(json.dumps(doc))
    code, out, err = run(capsys, "enumerate", "--resume", "--checkpoint", str(ckpt), "--jobs", jobs)
    assert code == EXIT_CHECKPOINT
    assert message in err and out == ""


def test_enumerate_progress_survives_a_backward_wall_clock_step(tmp_path, capsys, monkeypatch):
    # The wall clock steps back an hour after its first reading, and the
    # monotonic clock moves a second per reading: the progress interval
    # runs on the monotonic clock, so progress lines still appear.
    wall, ticks = itertools.count(), itertools.count()
    clock = types.SimpleNamespace(
        time=lambda: 1e9 - 3600.0 * min(next(wall), 1), monotonic=lambda: float(next(ticks))
    )
    monkeypatch.setattr("tropcay.cli.time", clock)
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    code, out, err = run(capsys, "enumerate", "--config", str(cfg_path), "--limit", "10")
    assert code == EXIT_OK and len(out.splitlines()) == 10
    assert any(line.startswith("visited=") for line in err.splitlines())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_done_line_counts_carried_verdicts(tmp_path, capsys, jobs):
    # On the first 300 quadric classes most verdicts come from witnesses
    # carried across flips; a fresh run decides each visited class once.
    cfg_path = tmp_path / "c22.json"
    run(capsys, "config", "cayley", "--d", "2", "--e", "2", "--out", str(cfg_path))
    code, out, err = run(
        capsys, "enumerate", "--config", str(cfg_path), "--group", "s4xz2", "--limit", "300",
        "--jobs", jobs,
    )
    assert code == EXIT_OK and len(out.splitlines()) == 300
    done = err.strip().splitlines()[-1]
    assert done.startswith("done: ")
    fields = dict(item.split("=") for item in done[len("done: "):].split())
    assert int(fields["carried"]) > 0
    assert int(fields["carried"]) + int(fields["lifted"]) + int(fields["solved"]) == int(fields["visited"])


# SHA-256 of the first 1,000 quadric lines in emission order: the complete
# run pins compare sorted sets, so only this one sees a change in the order
# of walls, rows or flips, on which a limited run's emissions depend.
_QUADRIC_1000 = "6ab253db94b66f7abaa430822b2fd9b7ed65718111fb45812740460596456463"


def test_enumerate_quadric_walk_order_pinned(tmp_path, capsys):
    cfg_path = tmp_path / "c22.json"
    run(capsys, "config", "cayley", "--d", "2", "--e", "2", "--out", str(cfg_path))
    fresh, first, rest = (tmp_path / f"{name}.jsonl" for name in ("fresh", "first", "rest"))
    ckpt = tmp_path / "run.ckpt"
    common = ["--config", str(cfg_path), "--group", "s4xz2"]
    assert run(capsys, "enumerate", *common, "--limit", "1000", "--out", str(fresh))[0] == EXIT_OK
    assert hashlib.sha256(fresh.read_bytes()).hexdigest() == _QUADRIC_1000
    code, _, _ = run(
        capsys, "enumerate", *common, "--limit", "500", "--checkpoint", str(ckpt), "--out", str(first),
    )
    assert code == EXIT_OK
    code, _, _ = run(
        capsys, "enumerate", "--resume", "--limit", "1000", "--checkpoint", str(ckpt), "--out", str(rest),
    )
    assert code == EXIT_OK
    assert first.read_bytes() + rest.read_bytes() == fresh.read_bytes()


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


# A unimodular triangulation of 3*Delta_2 (points in graded-lex order).
_3D2_CELLS = [
    [0, 1, 2], [1, 2, 4], [2, 4, 5], [1, 3, 4], [5, 8, 9], [4, 7, 8], [3, 6, 7], [4, 5, 8], [3, 4, 7],
]

# On 3*Delta_2: one unit triangle (volume 1 of 9); nine unit triangles of
# total volume 9 of which three share the edge AB; the triangulation above
# with the square ABCE's diagonal pair ABC, BCE replaced by ABC, ACE, which
# lie on one side of AC; and the triangulation above with an index that
# int() would truncate or read from a boolean.
_NOT_TRIANGULATIONS = {
    "partial-cover": {"cells": [[0, 1, 2]]},
    "facet-in-three-cells": {"cells": [
        [0, 1, 2], [0, 1, 4], [0, 1, 7], [2, 4, 5], [4, 5, 8],
        [5, 8, 9], [3, 6, 7], [3, 4, 7], [4, 7, 8],
    ]},
    "overlapping-cells": {"cells": [[0, 1, 2], [0, 2, 4]] + _3D2_CELLS[2:]},
    "index-2.6": {"cells": [[0, 1, 2.6]] + _3D2_CELLS[1:]},
    "index-true": {"cells": [[0, True, 2]] + _3D2_CELLS[1:]},
    "index-out-of-range": {"cells": [[0, 1, 10]] + _3D2_CELLS[1:]},
    "index-negative": {"cells": [[-1, 0, 1]] + _3D2_CELLS[1:]},
    "repeated-point": {"cells": [[0, 0, 2]] + _3D2_CELLS[1:]},
    # As a bitmask this cell is ABC, which would complete the triangulation.
    "repeated-point-in-oversize-cell": {"cells": [[0, 0, 1, 2]] + _3D2_CELLS[1:]},
    "four-point-cell": {"cells": [[0, 1, 2, 4]] + _3D2_CELLS[2:]},
    "collinear-cell": {"cells": [[0, 1, 3]] + _3D2_CELLS[1:]},
}


@pytest.mark.parametrize("case", sorted(_NOT_TRIANGULATIONS))
def test_classify_skips_lines_that_are_not_triangulations(tmp_path, capsys, case):
    cfg_path = tmp_path / "3d2.json"
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    _, out, _ = run(capsys, "enumerate", "--config", str(cfg_path), "--group", "s3", "--unimodular")
    good = out.strip().splitlines()[0]
    stream = tmp_path / "mixed.jsonl"
    stream.write_text(json.dumps(_NOT_TRIANGULATIONS[case]) + "\n" + good + "\n")
    code, _, err = run(
        capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(tmp_path / "cls"),
    )
    assert code == EXIT_OK
    assert "line 1: skipped (" in err
    assert "classified 1 inputs into 1 classes" in err


def _tree(path):
    """Every file under ``path`` by relative name, with its bytes."""
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def _classified_line(err):
    return [line for line in err.splitlines() if line.startswith("classified ")]


def _stream(tmp_path, capsys, config, *options):
    """Write a configuration ("3d2" or "quadric") and an enumerated stream
    of it; return both paths."""
    cfg_path = tmp_path / f"{config}.json"
    if config == "3d2":
        run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(cfg_path))
    else:
        run(capsys, "config", "cayley", "--d", "2", "--e", "2", "--out", str(cfg_path))
    stream = tmp_path / "tris.jsonl"
    run(capsys, "enumerate", "--config", str(cfg_path), *options, "--out", str(stream))
    return cfg_path, stream


def _with_malformed_lines(stream):
    lines = stream.read_text().splitlines()
    bad = ["not json at all", json.dumps(_NOT_TRIANGULATIONS["overlapping-cells"]), "{}"]
    mixed = [line for i, good in enumerate(lines) for line in ([good, bad[i % 3]] if i % 7 == 0 else [good])]
    stream.write_text("\n".join(mixed) + "\n")


# (configuration, enumerate options, stream edit, classify options); the
# S3 stream of 3D2 holds 18 unimodular lines of 213, and colors split the
# classes only on the Cayley configuration.
_JOBS_CASES = {
    "3d2-s3-unimodular": ("3d2", ["--group", "s3", "--unimodular"], None, []),
    "3d2-s3-all-213": ("3d2", ["--group", "s3"], None, []),
    "3d2-s3-all-213-malformed": ("3d2", ["--group", "s3"], _with_malformed_lines, []),
    "quadric-100-use-colors": ("quadric", ["--group", "s4xz2", "--limit", "100"], None, ["--use-colors"]),
}


@pytest.mark.parametrize("case", sorted(_JOBS_CASES))
def test_classify_jobs_parallel_matches_serial(tmp_path, capsys, case):
    config, enumerate_options, edit, options = _JOBS_CASES[case]
    cfg_path, stream = _stream(tmp_path, capsys, config, *enumerate_options)
    if edit:
        edit(stream)
    trees, totals = [], []
    for jobs in (1, 2, 4):
        out_dir = tmp_path / f"jobs{jobs}"
        code, _, err = run(
            capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(out_dir),
            "--jobs", str(jobs), *options,
        )
        assert code == EXIT_OK
        trees.append(_tree(out_dir))
        totals.append(_classified_line(err))
    assert trees[0] and trees[1] == trees[0] and trees[2] == trees[0]
    assert len(totals[0]) == 1 and totals[1] == totals[0] and totals[2] == totals[0]


# (configuration, enumerate options, classify options, SHA-256 of the
# output directory's listing in `sha256sum` form, last stderr line): the
# class order, the representatives and their rendering are pinned byte
# for byte.
_CLASSIFY_DIGESTS = {
    "3d2-s3-all-213": (
        "3d2", ["--group", "s3"], [],
        "e46d50e5401087cff550ef6479c10c90153b887e16252b253ef1a5d3e56d0e3f",
        "classified 18 inputs into 18 classes",
    ),
    "quadric-1000": (
        "quadric", ["--group", "s4xz2", "--limit", "1000"], [],
        "850221d13cc89f0e08aa0115d9a460ac4d8c7dfb7c31d8223d9a34f1a2dc2287",
        "classified 179 inputs into 21 classes",
    ),
    "quadric-1000-use-colors": (
        "quadric", ["--group", "s4xz2", "--limit", "1000"], ["--use-colors"],
        "f0bdead4308bc5f1b6a08c02ed9873288f2800a278fa106f0478651ec6346847",
        "classified 179 inputs into 30 classes",
    ),
}


@pytest.mark.parametrize("case", sorted(_CLASSIFY_DIGESTS))
def test_classify_outputs_are_pinned(tmp_path, capsys, case):
    config, enumerate_options, options, digest, last_line = _CLASSIFY_DIGESTS[case]
    cfg_path, stream = _stream(tmp_path, capsys, config, *enumerate_options)
    out_dir = tmp_path / "classes"
    code, _, err = run(
        capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(out_dir), *options,
    )
    assert code == EXIT_OK
    listing = "".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in _tree(out_dir).items())
    assert (hashlib.sha256(listing.encode()).hexdigest(), err.splitlines()[-1]) == (digest, last_line)


def test_classify_skips_non_unimodular_cayley_lines(tmp_path, capsys):
    cfg_path, stream = _stream(tmp_path, capsys, "quadric", "--group", "s4xz2", "--limit", "100")
    config = config_from_dict(load_json(cfg_path))
    lines = stream.read_text().splitlines()
    unimodular = [
        line for line in lines
        if is_unimodular(Triangulation.make(config, parse_triangulation_line(config, line)))
    ]
    assert 0 < len(unimodular) < len(lines)
    only = tmp_path / "unimodular.jsonl"
    only.write_text("".join(line + "\n" for line in unimodular))
    code, _, err = run(capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(tmp_path / "all"))
    assert code == EXIT_OK
    skipped = [line for line in err.splitlines() if "skipped" in line]
    assert len(skipped) == len(lines) - len(unimodular)
    assert all(line.endswith("skipped (not unimodular)") for line in skipped)
    code, _, only_err = run(capsys, "classify", "--config", str(cfg_path), "--in", str(only), "--out", str(tmp_path / "only"))
    assert code == EXIT_OK and "skipped" not in only_err
    assert _classified_line(err) == _classified_line(only_err)
    assert _tree(tmp_path / "all") == _tree(tmp_path / "only")


def test_classify_scans_each_lines_facets_once(tmp_path, capsys, monkeypatch):
    # The validity check's facet map is also the dual graph's walls.
    cfg_path, stream = _stream(tmp_path, capsys, "3d2", "--group", "s3", "--unimodular")
    scans = []
    facet_cells = FlipEngine._facet_cells

    def counted(engine, masks):
        scans.append(masks)
        return facet_cells(engine, masks)

    monkeypatch.setattr(FlipEngine, "_facet_cells", counted)
    code, _, err = run(capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(tmp_path / "out"))
    assert code == EXIT_OK
    assert _classified_line(err) == ["classified 18 inputs into 18 classes"]
    assert len(scans) == 18


# Each command reads one file that starts with a UTF-16 byte order mark,
# which is not valid UTF-8; "{dir}" also holds a valid 3D2 configuration
# "3d2.json" and the sample21 pair.
_UNDECODABLE_INPUTS = {
    "classify-in": ["classify", "--config", "{dir}/3d2.json", "--in", "{dir}/bad", "--out", "{dir}/out"],
    "enumerate-config": ["enumerate", "--config", "{dir}/bad"],
    "tropicalize-polynomial": ["tropicalize", "{f1}", "{dir}/bad", "--out", "{dir}/out"],
}


@pytest.mark.parametrize("case", sorted(_UNDECODABLE_INPUTS))
def test_undecodable_input_file_is_io_error(tmp_path, capsys, case):
    run(capsys, "config", "simplex", "--dim", "2", "--dilation", "3", "--out", str(tmp_path / "3d2.json"))
    (tmp_path / "bad").write_bytes(b"\xff\xfe{\x00}\x00\n\x00")
    f1, _ = data_pair("sample21")
    argv = [arg.format(dir=tmp_path, f1=f1) for arg in _UNDECODABLE_INPUTS[case]]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("i/o error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("config_args", [
    ["simplex", "--dim", "3", "--dilation", "2"],
    ["cayley", "--d", "1", "--e", "1", "--dim", "2"],
], ids=["simplex-3d", "cayley-3d"])
def test_classify_refuses_a_configuration_without_a_dual_graph(tmp_path, capsys, config_args):
    cfg_path = tmp_path / "cfg.json"
    stream = tmp_path / "stream.jsonl"
    assert run(capsys, "config", *config_args, "--out", str(cfg_path))[0] == EXIT_OK
    assert run(capsys, "enumerate", "--config", str(cfg_path), "--limit", "3", "--out", str(stream))[0] == EXIT_OK
    out_dir = tmp_path / "cls"
    code, out, err = run(capsys, "classify", "--config", str(cfg_path), "--in", str(stream), "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("bad input: classify needs affine dimension") and len(err.splitlines()) == 1
    assert not out_dir.exists()


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


def test_one_parser_serves_successive_calls(tmp_path, capsys, monkeypatch):
    # main parses with one parser per process; every call still gets its
    # own namespace and its own exit code.
    from tropcay import cli

    seen = []
    for name in ("cmd_tropicalize", "cmd_census"):
        command = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda args, command=command: seen.append(args) or command(args))
    f1, f2 = data_pair("cycle16")
    code, _, err = run(capsys, "tropicalize", f1, f2, "--out", str(tmp_path))
    assert code == EXIT_OK and "genus=1 cycle_length=16" in err
    with pytest.raises(SystemExit) as exc:
        main(["tropicalize", f1])
    assert exc.value.code == EXIT_USAGE
    code, out, _ = run(capsys, "census", "--v", "3", "--e", "3")
    assert code == EXIT_OK and out.strip() == "1"
    first, second = seen
    assert first is not second
    assert vars(first) == {"command": "tropicalize", "f1": f1, "f2": f2, "out": str(tmp_path)}
    assert vars(second) == {
        "command": "census", "v": 3, "e": 3, "max_degree": 3, "convention": "simple"
    }
    assert cli._build_parser() is cli._build_parser()
