"""The two benchmark workloads, each driven through ``tropcay.cli.main``.

A workload has three parts, all run inside one fresh round process:
``setup`` builds the inputs from the seed (counted in ``setup_s``),
``timed`` is the measured span, and ``check`` verifies the outputs
afterwards.  ``check`` returns how many items were attempted and failed,
plus digests that ``run.py`` compares across the rounds of one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from importlib import resources

from tropcay import cli
from tropcay.formats import config_from_dict, load_json, text_to_cells
from tropcay.geometry import cayley_config, simplex_lattice_points
from tropcay.graphs import ClassTable
from tropcay.triangulation import Triangulation, builtin_symmetry, is_regular, orbit_canonical_rep
from tropcay.tropical import CurveGraph

def _run_cli(argv) -> str:
    """Run one CLI command, returning its stderr; a non-zero exit raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"tropcay {argv[0]} exited with {code}: {err.getvalue()[-500:]}")
    return err.getvalue()


def _write_quadric_config(work) -> tuple[str, object]:
    path = os.path.join(work, "config.json")
    _run_cli(["config", "cayley", "--d", "2", "--e", "2", "--out", path])
    return path, config_from_dict(load_json(path))


def _read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- tropicalize-pairs ------------------------------------------------------


class TropicalizePairs:
    """Per round: one quadric pair, then ``sample21``, each through ``tropcay
    tropicalize`` with its curve added to a ClassTable.

    ``sample21`` (a tenth of a quadric pair's time) rides along in every
    round, so every round does the same work and the run's throughput does
    not depend on how many times the seeded order reached ``sample21``.
    """

    def setup(self, spec, work):
        base = resources.files("tropcay.data") / "pairs"
        jobs = []
        for name in (spec["pair"], "sample21"):
            f1, f2 = (str(base / f"{name}_f{i}.json") for i in (1, 2))
            d1, d2 = (load_json(f)["degree"] for f in (f1, f2))
            config = cayley_config(simplex_lattice_points(3, d1), simplex_lattice_points(3, d2))
            jobs.append({"name": name, "f1": f1, "f2": f2, "config": config,
                         "out": os.path.join(work, name)})
        return {"jobs": jobs}

    def timed(self, state) -> int:
        for job in state["jobs"]:
            _run_cli(["tropicalize", job["f1"], job["f2"], "--out", job["out"]])
            report = load_json(os.path.join(job["out"], "report.json"))
            vertices = report["vertices"]
            graph = CurveGraph(
                num_vertices=len(vertices),
                edges=tuple(tuple(e) for e in report["edges"]),
                colors=tuple(v["color"] for v in vertices),
                ray_counts=tuple(v["rays"] for v in vertices),
                vertex_cells=tuple(text_to_cells(job["config"], v["cell"])[0] for v in vertices),
            )
            table = ClassTable()
            table.add(graph, job["name"])
            job["report"] = report
            job["table"] = table
        return len(state["jobs"])

    def check(self, state, full: bool) -> dict:
        errors, failed, digests = [], 0, {}
        for job in state["jobs"]:
            job_errors = self._check_pair(job)
            errors += job_errors
            failed += 1 if job_errors else 0
            entries = job["table"].entries()
            digests[job["name"]] = _digest([entries[0].form.encode().decode() if entries else ""])
        return {"attempted": len(state["jobs"]), "failed": failed, "errors": errors,
                "pair_digests": digests}

    @staticmethod
    def _check_pair(job) -> list[str]:
        name, report, table = job["name"], job["report"], job["table"]
        errors = []
        nv, ne = len(report["vertices"]), len(report["edges"])
        if name == "sample21":
            want = {"genus": 0, "cycle_length": None, "mixed_count": 6, "unmixed_count": 9}
            if ne != nv - 1:
                errors.append(f"sample21 curve is not a tree: {nv} vertices, {ne} edges")
        else:
            length = 8 if name == "twoadic" else int(name[5:])
            want = {"genus": 1, "cycle_length": length, "mixed_count": 16, "ray_total": 16}
            if (nv, ne) != (16, 16):
                errors.append(f"{name}: {nv} vertices and {ne} edges, expected 16 and 16")
        for key, value in want.items():
            if report[key] != value:
                errors.append(f"{name}: {key} is {report[key]!r}, expected {value!r}")
        entries = table.entries()
        if table.total != 1 or len(entries) != 1:
            errors.append(f"{name}: class table holds {table.total} graphs in {len(entries)} classes")
        return errors


# -- enumerate-quadric --------------------------------------------------------


class EnumerateQuadric:
    """C(2D3,2D3) under S4xZ2, halted at half the target and resumed."""

    def setup(self, spec, work):
        import scipy.optimize  # noqa: F401  tropcay.lp imports it on the first LP; count it here

        sizes = spec["sizes"]
        config_path, config = _write_quadric_config(work)
        group = builtin_symmetry("cayley-2d3-2d3", config)
        # A seeded group element relabels the default placing order: the
        # seed triangulation changes, its symmetry class does not, so every
        # seed walks the same classes (see README.md for why).
        g = random.Random(spec["seed"]).choice(group.elements)
        target = sizes["enumerate_target"]
        ckpt = os.path.join(work, "run.ckpt")
        first = os.path.join(work, "first.jsonl")
        second = os.path.join(work, "second.jsonl")
        common = ["--checkpoint", ckpt, "--checkpoint-every", str(sizes["enumerate_checkpoint_every"])]
        return {
            "sizes": sizes, "seed": spec["seed"], "config": config, "group": group, "target": target,
            "ckpt": ckpt, "first": first, "second": second,
            "halt": ["enumerate", "--config", config_path, "--group", "s4xz2",
                     "--limit", str(target // 2), "--placing-order", ",".join(map(str, g)),
                     "--out", first] + common,
            "resume": ["enumerate", "--resume", "--limit", str(target), "--out", second] + common,
        }


    def timed(self, state) -> int:
        _run_cli(state["halt"])
        _run_cli(state["resume"])
        with open(state["first"], "rb") as a, open(state["second"], "rb") as b:
            return sum(1 for _ in a) + sum(1 for _ in b)

    def check(self, state, full: bool) -> dict:
        config, group, target = state["config"], state["group"], state["target"]
        first = [tuple(map(tuple, d["cells"])) for d in _read_jsonl(state["first"])]
        second = [tuple(map(tuple, d["cells"])) for d in _read_jsonl(state["second"])]
        emitted = first + second
        errors = []
        counter = load_json(state["ckpt"])["emitted"]
        shortfall = max(0, target - len(emitted))
        if shortfall or counter != len(emitted):
            errors.append(f"{len(emitted)} emissions, checkpoint counts {counter}, target {target}")
        dupes = len(emitted) - len(set(emitted))
        if dupes:
            errors.append(f"{dupes} classes were emitted twice")
        bad = set(first) & set(second)
        if bad:
            errors.append(f"{len(bad)} classes emitted both before the halt and after the resume")
        if full:
            bits = [[1 << g[i] for i in range(len(g))] for g in group.elements]
            for cells in emitted:
                own = tuple(sorted(sum(1 << i for i in c) for c in cells))
                least = min(tuple(sorted(sum(b[i] for i in c) for c in cells)) for b in bits)
                if least != own:
                    bad.add(cells)
            rng = random.Random(state["seed"])
            sizes = state["sizes"]
            for cells in rng.sample(emitted, min(sizes["enumerate_rep_sample"], len(emitted))):
                t = Triangulation.make(config, cells)
                if orbit_canonical_rep(t, group) != t:
                    bad.add(cells)
            for cells in rng.sample(emitted, min(sizes["enumerate_regular_sample"], len(emitted))):
                if is_regular(Triangulation.make(config, cells), mode="global") is None:
                    bad.add(cells)
            if bad:
                errors.append(f"{len(bad)} classes are repeated, not canonical or not regular")
        failed = len(bad) + dupes + shortfall + (counter != len(emitted))
        texts = sorted(json.dumps(cells) for cells in emitted)
        return {"attempted": max(target, len(emitted)), "failed": failed, "errors": errors,
                "digest": _digest(texts)}


WORKLOADS = {
    "tropicalize-pairs": TropicalizePairs(),
    "enumerate-quadric": EnumerateQuadric(),
}
