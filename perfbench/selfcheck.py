"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

For each workload, at seed 0, it makes one short untraced run and two short traced
runs of ``run.py`` and confirms that

- each run exits 0 and ends with a correct result object;
- every metric BENCHMARK.json names is emitted, with its unit, in the
  mode it belongs to, and no end-to-end metric reads 0;
- the per-layer self times cover at least 90% of the traced wall time;
- the count metrics repeat exactly between the two traced runs.

It also confirms that ``run.py`` exits non-zero without a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Takes a few minutes; exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MIN_COVERAGE = 0.9
REPEATING_COUNTS = ("crf.objective_calls", "optim.iterations",
                    "optim.backtracks", "features.positions_expanded",
                    "crf.tagged_tokens", "crf.n_features")


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run(root: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result_of(proc, label: str) -> dict:
    expect(proc.returncode == 0,
           f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, f"{label}: not correct: {result}")
    return result["metrics"]


def check_units(metrics: dict, declared: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    expect(set(metrics) == set(want),
           f"{label}: emitted {sorted(metrics)}, declared {sorted(want)}")
    for name, unit in want.items():
        expect(metrics[name]["unit"] == unit,
               f"{label}: {name} has unit {metrics[name]['unit']!r}, "
               f"declared {unit!r}")


def check_workload(spec: dict, workload: str) -> None:
    label = f"{workload} --trace 0"
    metrics = result_of(run(ROOT, workload, SEED, 0), label)
    check_units(metrics, spec["end_to_end"], label)
    for name, entry in metrics.items():
        expect(entry["value"] > 0, f"{label}: {name} reads {entry['value']}")
    traced = []
    for attempt in (1, 2):
        label = f"{workload} --trace 1 (run {attempt})"
        metrics = result_of(run(ROOT, workload, SEED, 1), label)
        check_units(metrics, spec["per_layer"], label)
        coverage = metrics["trace.coverage"]["value"]
        expect(coverage >= MIN_COVERAGE,
               f"{label}: layers cover {coverage:.1%} of traced wall_s")
        traced.append(metrics)
    for name in REPEATING_COUNTS:
        a, b = (m[name]["value"] for m in traced)
        expect(a == b, f"{workload}: {name} differs between runs: {a} vs {b}")
    print(f"ok  {workload}: metrics and units match, coverage "
          f"{traced[0]['trace.coverage']['value']:.4f}, counts repeat")


def check_bare_directory(spec: dict) -> None:
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run(bare, workload, SEED, 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and '"metrics"' not in last,
               f"bare directory: exit {proc.returncode}, last line {last!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_bare_directory(spec)
        for workload in spec["workloads"]:
            check_workload(spec, workload["name"])
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
