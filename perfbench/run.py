"""spantag benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports spantag from
``src/``.  The run sets the workload up several times (``setup_s`` is
the median), then starts one fresh worker process per timed run until
``--seconds`` of measuring have passed.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` the first timed run is untraced and the
rest are traced, and the object holds every per-layer metric.  The line
before it records the environment, the output digests and each timed
run.  Work files live in ``.perfbench_work/`` and are removed at exit.
BLAS and OpenMP pools are pinned to one thread, and the run and its
workers to one CPU.  Reported times are scaled to a reference CPU speed
(see ``speed.py``); the info line keeps the raw wall times.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S have passed
SETUP_MIN_S = 3.0
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": files_digest(SRC.rglob("*.py")),
    }


def set_up(workload, seed: int, workdir: Path, traced: bool):
    """Set the workload up repeatedly; every repeat must write the same
    bytes.  Returns (facts, setup times, synth.generate times, input
    digests)."""
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import write_facts

    times, generate, digests = [], [], set()
    spent = 0.0
    while len(times) < SETUP_REPEATS or spent < SETUP_MIN_S:
        for old in workdir.iterdir():
            old.unlink()
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        with SpeedProbe() as probe:
            start = time.perf_counter()
            try:
                facts = workload.setup(seed, workdir)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.restore()
        spent += elapsed
        times.append(elapsed * probe.factor)
        if tracer is not None:
            generate.append(tracer.self_times()["synth.generate"] * probe.factor)
        digests.add(files_digest(workdir.iterdir()))
    write_facts(workdir, facts)
    return facts, times, generate, digests


def run_worker(name: str, workdir: Path, seed: int, traced: bool,
               deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for a timed run")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
           "--workdir", str(workdir), "--seed", str(seed),
           "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"timed run exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, workdir: Path, seed: int, seconds: float,
            trace: bool, deadline: float) -> list[dict]:
    """Timed runs until `seconds` have passed; with tracing, the first
    run is untraced and at least one traced run follows."""
    stop = time.monotonic() + seconds
    records = []
    while True:
        traced = trace and bool(records)
        records.append(run_worker(name, workdir, seed, traced, deadline))
        done = time.monotonic() >= stop
        if done and (not trace or len(records) > 1):
            return records


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(records, facts, setup_times, generate_times, trace: bool):
    if trace:
        base = records[0]
        traced = records[1:]
        metrics = {m: statistics.median(r["layers"][m] for r in traced)
                   for m in traced[0]["layers"]}
        metrics["synth.generate_s"] = statistics.median(generate_times)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - base["wall_s"])
    else:
        objectives = [r["final_objective"] for r in records
                      if r["final_objective"] is not None]
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in records),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "strict_f1": statistics.median(r["strict_f1"] for r in records),
            "lenient_f1": statistics.median(r["lenient_f1"] for r in records),
            "final_objective": (statistics.median(objectives) if objectives
                                else facts.get("final_objective", 0.0)),
            "success_rate": 1.0 - failed / attempted,
        }
    units = declared_units(trace)
    missing = set(units) - set(metrics)
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    return {m: {"value": metrics[m], "unit": units[m]} for m in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "spantag" / "__init__.py").is_file():
        print(f"perfbench: no spantag sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for set-up, workers and their speed probes alike
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        facts, setup_times, generate_times, input_digests = set_up(
            workload, args.seed, workdir, trace)
        records = measure(args.workload, workdir, args.seed, args.seconds,
                          trace, started + RUN_LIMIT_S)
        metrics = summarize(records, facts, setup_times, generate_times, trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    output_digests = sorted({r["digest"] for r in records})
    problems = sorted({p for r in records for p in r["problems"]})
    if len(input_digests) != 1:
        problems.append("set-up wrote different inputs on repeats")
    if len(output_digests) != 1:
        problems.append("timed runs disagree on the output digest"
                        + (" (traced vs untraced)" if trace else ""))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "input_sha256": sorted(input_digests),
        "output_sha256": output_digests,
        "setup_s": setup_times,
        "runs": [{k: r[k] for k in ("traced", "wall_s", "raw_wall_s", "speed",
                                    "peak_rss_mb")}
                 for r in records],
        "problems": problems,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
