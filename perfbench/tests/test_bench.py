"""Self-tests of the benchmark: repeatable traces, restored names, refusal.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run
from round import execute
from tracing import PER_LAYER, SELF_TIME_METRICS, TARGETS

TINY = {
    "enumerate_target": 40,
    "enumerate_checkpoint_every": 10,
    "enumerate_rep_sample": 4,
    "enumerate_regular_sample": 2,
}
SEED = 7


def _counts(layers):
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in layers.items() if units.get(k) in ("count", "B", "ratio")}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_two_traced_rounds_give_identical_counts(workload, tmp_path):
    results = [
        run.run_round(workload, SEED, 0, True, True, TINY,
                      tmp_path / f"run{k}", time.monotonic() + 120)
        for k in range(2)
    ]
    for r in results:
        assert "error" not in r, r.get("error")
        assert r["failed"] == 0 and not r["errors"], r["errors"]
    first, second = (_counts(r["layers"]) for r in results)
    assert first == second
    assert any(v for v in first.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_round_restores_names_and_partitions_wall_time(workload, tmp_path):
    owners = []
    for _name, module, cls, attr, _kind in TARGETS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        owners.append((owner, attr, vars(owner)[attr]))
    spec = {
        "workload": workload, "seed": SEED, "index": 0, "traced": True,
        "full_check": True, "sizes": TINY, "work_dir": str(tmp_path),
        "spans_path": str(tmp_path / "spans.json"),
        "pair": run.pair_order(SEED)[0], "spawned": time.monotonic(),
    }
    result = execute(spec)
    for owner, attr, original in owners:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"
    assert result["failed"] == 0 and result["missing_targets"] == []
    layers = result["layers"]
    assert layers["cli.self.s"] >= 0
    total = layers["cli.self.s"] + sum(layers[m] for m in SELF_TIME_METRICS)
    assert math.isclose(total, layers["trace.wall_s"], rel_tol=1e-9)
    assert layers["trace.wall_s"] == result["timed_s"]
    dump = json.loads((tmp_path / "spans.json").read_text())
    assert dump["spans"] and all(len(span) == 4 for span in dump["spans"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate-quadric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
