"""One timed run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --workdir DIR --seed N --trace 0|1

Reads the inputs that ``run.py`` set up in DIR, times the workload's
timed part (traced or not), checks its outputs, and prints one JSON
record as the last line of standard output.  Times are scaled to the
reference CPU speed by a ``SpeedProbe`` running during the timed part;
the raw wall time is kept beside them.  The process's peak resident
set size is read right after the timed part, before the checks
allocate anything.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spantag.errors import SpantagError

from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Outcome, read_facts


def run_once(name: str, workdir: Path, seed: int, traced: bool) -> dict:
    workload = WORKLOADS[name]
    facts = read_facts(workdir)
    state = workload.prepare(seed, workdir, facts)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            with tracer.root() if tracer is not None else nullcontext():
                result = workload.timed(state)
        except SpantagError as exc:
            result = exc
        wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.restore()
    if isinstance(result, SpantagError):
        outcome = Outcome(workload.attempted(facts))
        outcome.fail(outcome.attempted, f"timed part raised {result!r}")
    else:
        outcome = workload.check(state, result, facts)
    record = {
        "traced": traced,
        "wall_s": wall * probe.factor,
        "raw_wall_s": wall,
        "speed": probe.factor,
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "strict_f1": outcome.strict_f1,
        "lenient_f1": outcome.lenient_f1,
        "final_objective": outcome.final_objective,
        "problems": outcome.problems,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(facts["input_tokens"])
        record["layers"] = {
            name: value * probe.factor if name.endswith(("_s", "_ms")) else value
            for name, value in layers.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.workdir, args.seed, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
