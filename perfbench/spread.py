"""Run-to-run spread of the benchmark: one run.py run per seed, then the
median, quartiles and (q3 - q1) / median of every metric.

    python3 perfbench/spread.py --workload identity --seeds 0-9
    python3 perfbench/spread.py --workload tower --seeds 0 --trace 1 --record perfbench/baseline.json

--record stores the summary in a trajectory file under the workload, next
to the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, environment, parse_seeds


def measure(workload, seeds, seconds, trace) -> tuple[dict, int]:
    values, attempted, failed = {}, 0, 0
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, {"unit": metric["unit"], "values": []})
            values[name]["values"].append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4]),
              file=sys.stderr)
    summary = {}
    for name, entry in values.items():
        vals = entry["values"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"unit": entry["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": vals}
    return {"seeds": seeds, "attempted": attempted, "failed": failed,
            "metrics": summary}, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="run-to-run spread of run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="trajectory JSON file to store the summary in")
    args = parser.parse_args()
    summary, failed = measure(args.workload, parse_seeds(args.seeds), args.seconds, args.trace)
    for name, m in summary["metrics"].items():
        print(f"{name:42s} median {m['median']:>12.6g} {m['unit']:8s} "
              f"q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g} spread {m['spread']:.3f}")
    if args.record:
        path = Path(args.record)
        trajectory = json.loads(path.read_text()) if path.exists() else {}
        trajectory.setdefault("environment", environment(summary["seeds"][0]))
        trajectory["run_seconds"] = args.seconds
        section = "per_layer" if args.trace else "end_to_end"
        trajectory.setdefault(section, {})[args.workload] = summary
        path.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
