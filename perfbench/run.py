"""tropcay benchmark: two workloads through the public CLI entry points.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

* ``tropicalize-pairs``: per round, one bundled quadric pair (in a seeded
  order) and then ``sample21``, each through ``tropcay tropicalize`` with
  its curve added to a ClassTable.  Items are pairs.
* ``enumerate-quadric``: ``tropcay enumerate`` on C(2D3,2D3) under S4xZ2,
  halted at half the target emission count and resumed.  Items are classes.

Every round runs in a fresh process (``round.py``), serially, as a user's
CLI invocation would: caches start cold, and its peak RSS is its own.  With
``--trace 0`` rounds repeat until ``--seconds`` is used up; ``items_per_s``
is the items of all rounds over their summed timed spans, and ``setup_s``
and ``peak_rss_mb`` are medians over rounds.  With ``--trace 1`` a fixed
number of round pairs runs, each once untraced and once traced on the
same input, and the per-layer metrics are medians over the traced rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
tropcay sources next to it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

WORKLOAD_NAMES = ("tropicalize-pairs", "enumerate-quadric")
MIN_ROUNDS = 3       # untraced rounds, even when --seconds runs out first
TRACE_ROUNDS = 3     # untraced/traced round pairs in a traced run
ROUND_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("items_per_s", "items/s"), ("peak_rss_mb", "MiB"))

# The quadric pairs; every tropicalize-pairs round also runs sample21.
QUADRIC_PAIRS = tuple(f"cycle{n:02d}" for n in range(3, 17)) + ("twoadic",)

# Sizes of one round; the self-tests pass smaller ones.
DEFAULT_SIZES = {
    "enumerate_target": 1000,        # emissions; the halt is at half of it
    "enumerate_checkpoint_every": 250,
    "enumerate_rep_sample": 20,      # classes re-checked by orbit_canonical_rep
    "enumerate_regular_sample": 10,  # classes re-certified with mode="global"
}


def pair_order(seed: int) -> list[str]:
    """The seeded order in which tropicalize-pairs rounds visit the quadric pairs."""
    order = list(QUADRIC_PAIRS)
    random.Random(seed).shuffle(order)
    return order


def planned_items(workload: str, sizes: dict) -> int:
    """Items one round of the workload attempts."""
    if workload == "tropicalize-pairs":
        return 2
    return sizes["enumerate_target"]


def run_round(workload, seed, index, traced, full_check, sizes, run_dir, deadline) -> dict:
    """Start one round process, wait for it, and return its result."""
    work = Path(run_dir) / f"round{index:03d}{'t' if traced else 'u'}"
    work.mkdir(parents=True)
    spec = {
        "workload": workload, "seed": seed, "index": index, "traced": traced,
        "full_check": full_check, "sizes": sizes, "work_dir": str(work),
        "spans_path": str(Path(run_dir).parent / f"spans-{workload}-{index}.json"),
    }
    if workload == "tropicalize-pairs":
        spec["pair"] = pair_order(seed)[index % len(QUADRIC_PAIRS)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("TROPCAY_CHECKPOINT_EVERY", None)
    spec_path, result_path = work / "spec.json", work / "result.json"
    timeout = max(5.0, min(ROUND_TIMEOUT_S, deadline - time.monotonic()))
    spec["spawned"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "round.py"), str(spec_path), str(result_path)],
            env=env, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        result = {"error": f"round timed out after {timeout:.0f} s"}
    else:
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            result = {"error": f"round exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    shutil.rmtree(work, ignore_errors=True)
    if "error" in result:
        result.update(attempted=planned_items(workload, sizes), failed=planned_items(workload, sizes))
    result["traced"] = traced
    result["index"] = index
    return result


def cross_round_failures(workload: str, rounds: list[dict]) -> tuple[int, list[str]]:
    """Checks that span rounds: replicated rounds agree, pairs keep their class."""
    done = [r for r in rounds if "error" not in r]
    errors = []
    failed = 0
    if workload == "tropicalize-pairs":
        by_pair: dict[str, set] = {}
        for r in done:
            for pair, digest in r["pair_digests"].items():
                by_pair.setdefault(pair, set()).add(digest)
        for pair, digests in by_pair.items():
            if len(digests) != 1:
                errors.append(f"{pair} fell into different classes in different rounds")
                failed += 1
        cycles = [next(iter(d)) for p, d in by_pair.items() if p.startswith("cycle")]
        if len(set(cycles)) != len(cycles):
            errors.append(f"{len(cycles)} cycle pairs fell into {len(set(cycles))} classes")
            failed += len(cycles) - len(set(cycles))
    else:
        for r in done[1:]:
            if r["digest"] != done[0]["digest"]:
                errors.append(f"round {r['index']} output differs from round {done[0]['index']}")
                failed += r["attempted"]
    return failed, errors


def _rate(r: dict) -> float:
    return r["items"] / r["timed_s"]


def _total_rate(rounds) -> float:
    """Items of all rounds over their summed timed spans.

    The host's speed switches between slower and faster phases that last
    seconds to a minute.  A median over rounds jumps with whichever phase
    held most rounds; this time-weighted mean moves only with the share of
    the run each phase took, so it spreads less from run to run.
    """
    return sum(r["items"] for r in rounds) / sum(r["timed_s"] for r in rounds)


def end_to_end_metrics(rounds: list[dict]) -> dict:
    ok = [r for r in rounds if "error" not in r]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "items_per_s": _total_rate(ok),
        "peak_rss_mb": statistics.median(r["rss_mib"] for r in ok),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(rounds: list[dict]) -> dict:
    from tracing import PER_LAYER

    traced = {r["index"]: r for r in rounds if r["traced"] and "error" not in r}
    plain = {r["index"]: r for r in rounds if not r["traced"] and "error" not in r}
    values = {}
    for name, _unit, _better in PER_LAYER:
        if not name.startswith("trace."):
            values[name] = statistics.median(r["layers"][name] for r in traced.values())
    values["trace.wall_s"] = statistics.median(r["timed_s"] for r in traced.values())
    values["trace.items_per_s"] = _total_rate(traced.values())
    values["trace.overhead_ratio"] = statistics.median(
        _rate(traced[i]) / _rate(plain[i]) for i in traced.keys() & plain.keys()
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "tropcay" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tropcay sources under {SOURCE}\n")
        return 2
    sizes = DEFAULT_SIZES
    started = time.monotonic()
    deadline = started + 170.0
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    run_dir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds: list[dict] = []
    try:
        if args.trace:
            for index in range(TRACE_ROUNDS):
                for traced in (False, True):
                    rounds.append(run_round(args.workload, args.seed, index, traced, index == 0,
                                            sizes, run_dir, deadline))
        else:
            index = 0
            while True:
                before = time.monotonic()
                rounds.append(run_round(args.workload, args.seed, index, False, index == 0,
                                        sizes, run_dir, deadline))
                index += 1
                elapsed = time.monotonic() - started
                last = time.monotonic() - before
                if index >= MIN_ROUNDS and elapsed + last > args.seconds:
                    break
                if time.monotonic() + last > deadline:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r in rounds:
        for message in ([r["error"]] if "error" in r else r["errors"]):
            sys.stderr.write(f"round {r['index']}{' traced' if r['traced'] else ''}: {message}\n")
    complete = {(r["index"], r["traced"]) for r in rounds if "error" not in r}
    if args.trace:
        complete = {i for i, traced in complete if traced and (i, False) in complete}
    if not complete:
        sys.stderr.write("error: no round completed\n")
        return 1
    cross_failed, cross_errors = cross_round_failures(args.workload, rounds)
    for message in cross_errors:
        sys.stderr.write(f"across rounds: {message}\n")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds) + cross_failed
    metrics = per_layer_metrics(rounds) if args.trace else end_to_end_metrics(rounds)
    correct = failed == 0 and not cross_errors and not any(
        "error" in r or r["errors"] for r in rounds
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
