"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME

Runs ``run.py`` untraced once per seed 0 to 9, at BENCHMARK.json's run
length, and prints, per end-to-end metric, the median, the quartiles
and the quartile distance as a share of the median next to the
metric's bound.  A steady benchmark keeps every share, ``setup_s``
aside, below a third of its bound.  ``wall_s`` is also given raw, from
each run's unscaled wall times, to show what the speed scaling does.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    *_, info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    runs = json.loads(info)["info"]["runs"]
    result["runs_wall_s"] = [round(r["wall_s"], 3) for r in runs]
    result["runs_raw_wall_s"] = [round(r["raw_wall_s"], 3) for r in runs]
    return result


def report(name: str, values: list, bound: float) -> None:
    q1, med, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med
    verdict = "ok" if share < bound / 3 else "WIDE"
    print(f"  {name:<16} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
          f"spread {share:.4f}  bound {bound}  {verdict}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    results = []
    for seed in SEEDS:
        result = run(args.workload, seed, spec["run_seconds"])
        print(json.dumps({"seed": seed, **result}), flush=True)
        results.append(result)
    ok = all(r["correct"] for r in results)
    print(f"{args.workload}: {len(SEEDS)} seeds, all correct: {ok}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        report(name, [r["metrics"][name]["value"] for r in results], bound)
        if name == "wall_s":
            report("wall_s (raw)", [statistics.median(r["runs_raw_wall_s"])
                                    for r in results], bound)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
