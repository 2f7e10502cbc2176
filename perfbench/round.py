"""One round of a workload, in a fresh process: setup, timed span, checks.

Usage: python3 perfbench/round.py SPEC.json RESULT.json

``run.py`` writes the spec (workload, seed, round index, sizes, whether
to trace, and the monotonic clock reading taken just before this process
was started) and reads the result.  ``setup_s`` runs from that reading to
the first timed call, so it includes interpreter start and imports.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def execute(spec: dict) -> dict:
    """Run one round in this process and return its result document."""
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    work = spec["work_dir"]
    state = workload.setup(spec, work)
    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - spec["spawned"]
    start = time.perf_counter()
    try:
        items = workload.timed(state)
    finally:
        timed_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"items": items, "timed_s": timed_s, "setup_s": setup_s, "rss_mib": rss_mib}
    result.update(workload.check(state, spec["full_check"]))
    if tracer is not None:
        tracer.dump(spec["spans_path"])
        result["layers"] = tracer.summary(timed_s)
        result["missing_targets"] = tracer.missing
    return result


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = execute(spec)
    except Exception:  # the round is reported as failed, the run goes on
        result = {"error": traceback.format_exc()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
