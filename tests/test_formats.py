import json
import random
from fractions import Fraction

import pytest

from tropcay.formats import (
    cells_to_text,
    config_from_dict,
    config_to_dict,
    marked_cell_text,
    parse_triangulation_line,
    polynomial_terms_from_dict,
    text_to_cells,
    triangulation_line,
)
from tropcay.geometry import PointConfiguration, cayley_config, simplex_lattice_points
from tropcay.tropical import CurveGraph


def cayley22():
    f = simplex_lattice_points(3, 2)
    return cayley_config(f, f)


def test_config_roundtrip_preserves_everything():
    cfg = cayley22()
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_polynomial_roundtrip():
    doc = {
        "format": "tropcay/valued-polynomial/1",
        "degree": 1,
        "terms": [
            {"exp": [0, 0, 0], "val": "3/2"},
            {"exp": [0, 0, 1], "val": "1"},
            {"exp": [0, 1, 0], "val": "2"},
            {"exp": [1, 0, 0], "val": "0"},
        ],
    }
    terms = {(0, 0, 0): Fraction(3, 2), (1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2), (0, 0, 1): Fraction(1)}
    assert polynomial_terms_from_dict(doc) == (1, terms)


def test_cell_text_roundtrip():
    cfg = cayley22()
    cells = [(0, 2, 4, 10, 12), (1, 3, 5, 11, 13)]
    text = cells_to_text(cfg, cells)
    assert text == "ACEac,BDFbd"
    assert text_to_cells(cfg, text) == tuple(sorted(tuple(sorted(c)) for c in cells))


def test_triangulation_line_roundtrip():
    cfg = cayley22()
    cells = ((0, 1, 2, 10, 11), (3, 4, 5, 12, 13))
    line = triangulation_line(cfg, cells)
    doc = json.loads(line)
    assert doc["format"] == "tropcay/triangulation/1"
    assert parse_triangulation_line(cfg, line) == cells
    # text-only lines parse too
    text_only = json.dumps({"text": doc["text"]})
    assert parse_triangulation_line(cfg, text_only) == cells


def escaped_labels():
    # Labels that JSON must escape; only configurations built in Python have them.
    cfg = cayley22()
    labels = tuple(f'{label}"\\é' for label in cfg.labels)
    return PointConfiguration(cfg.ambient_dim, cfg.points, labels, cfg.cayley_sizes)


def test_triangulation_line_matches_the_two_sort_formula():
    # Lines are joined from cached per-cell fragments; each must equal the
    # one json.dumps builds with cells and text sorted separately, whatever
    # order the cells come in.
    for cfg in (cayley22(), escaped_labels()):
        rng = random.Random(3)
        for _ in range(50):
            cells = [rng.sample(range(len(cfg.points)), 5) for _ in range(rng.randint(1, 8))]
            rng.shuffle(cells)
            ordered = sorted(map(tuple, map(sorted, cells)))
            text = ",".join("".join(cfg.labels[i] for i in sorted(c)) for c in ordered)
            expected = json.dumps(
                {"format": "tropcay/triangulation/1", "cells": [list(c) for c in ordered], "text": text},
                separators=(",", ":"),
            )
            assert triangulation_line(cfg, cells) == expected


def _toblerone_graph(colors):
    # two vertex cells, 3+2 and 2+3, of a cell text whose 4+1 cell is no vertex
    return CurveGraph(2, ((0, 1),), colors, (2, 2), ((0, 1, 2, 10, 11), (0, 1, 10, 11, 12)))


def test_marked_cell_text_tags_toblerones():
    cfg = cayley22()
    text = cells_to_text(cfg, [(0, 1, 2, 10, 11), (0, 1, 10, 11, 12), (0, 1, 2, 3, 10)])
    assert text == "ABCDa,ABCab,ABabc"
    # each vertex cell carries its vertex's colour; the other cell is untagged
    assert marked_cell_text(cfg, text, _toblerone_graph(("blue", "red"))) == "ABCDa,ABCab(b),ABabc(r)"


def test_marked_cell_text_marks_follow_the_graph_colours():
    cfg = cayley22()
    text = "ABCDa,ABCab,ABabc"
    assert marked_cell_text(cfg, text, _toblerone_graph(("red", "blue"))) == "ABCDa,ABCab(r),ABabc(b)"
    # a planar curve has no colours: the text comes back as it went in
    assert marked_cell_text(cfg, text, _toblerone_graph(None)) == text


def test_rejects_wrong_format_field():
    with pytest.raises(ValueError):
        config_from_dict({"format": "something/else", "ambient_dim": 1, "points": [[0]], "labels": ["A"]})
    with pytest.raises(ValueError):
        polynomial_terms_from_dict({"format": "nope", "degree": 1, "terms": []})


def test_extended_labels_parse_back():
    from tropcay.geometry import PointConfiguration, block_labels

    labels = block_labels(28)
    pts = tuple((i,) for i in range(28))
    cfg = PointConfiguration(1, pts, labels)
    text = cells_to_text(cfg, [(26, 27)])
    assert text == "A1B1"
    assert text_to_cells(cfg, text) == ((26, 27),)
