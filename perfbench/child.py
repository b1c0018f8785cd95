"""One measured pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py --workload identity --seed 0 --jobs 1 \
        --out DIR --result FILE [--trace] [--setup-only]

The harness (run.py) starts this script and takes the start time just
before it spawns the process, so set-up covers interpreter start,
``import depthzero`` (numpy included), configuration and task building.
The pass writes to FILE, as JSON, the monotonic time at which the first
check starts, the time the last record was returned or written, its own
CPU seconds at the first check, the records, the per-check durations and,
with --trace, the span aggregates of perfbench/spans.py.  With
--setup-only it stops where the first check would start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Campaigns run through the command line of the package, as a user would.
CLI_ARGS = {
    "identity": ["identity", "--q", "3,5,7,9", "--kind", "both", "--eta-branch", "both"],
    "all-j2": ["all"],
}
# The tower workload runs the checks that need a field tower at the largest
# q the default budget holds, plus q = 27 for a degree-12 walk (p = 3).
TOWER_QS = (27, 47)
TOWER_FNS = ("split_vs_combined", "rho_shift_unique")


class _SetupDone(Exception):
    pass


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def tower_tasks(driver, seed: int, cache_dir: str) -> list[dict]:
    """Task dicts built as ``driver.identity_tasks`` builds them, for the
    tower-needing checks at TOWER_QS, both kinds, both eta branches on kind 2."""
    cfg = driver.Config(qs=[3], seed=seed, cache_dir=cache_dir)
    claims = {t["fn"]: t["claim"] for t in driver.identity_tasks(cfg)}
    base = driver._base_params(cfg)
    tasks = []
    for q in TOWER_QS:
        for kind in (1, 2):
            for branch in ((1, -1) if kind == 2 else (1,)):
                suffix = f"-k{kind}-q{q}"
                if kind == 2:
                    suffix += "-plus" if branch == 1 else "-minus"
                for fn in TOWER_FNS:
                    tasks.append({
                        "id": f"identity/{fn.replace('_', '-')}{suffix}",
                        "claim": claims[fn],
                        "fn": fn,
                        "params": {**base, "kind": kind, "q": q, "branch": branch},
                    })
    return tasks


def run_pass(workload: str, seed: int, jobs: int, out: Path, *, setup_only=False,
             tracer=None) -> dict:
    """Run one pass in this process; returns the timing and the records."""
    sys.path.insert(0, str(ROOT / "src"))
    from depthzero import driver

    if tracer is not None:
        tracer.install()
    marks = {}

    def first_check():
        marks["first"] = time.monotonic()
        marks["cpu_first"] = _cpu_seconds()
        if setup_only:
            raise _SetupDone

    if workload == "tower":
        tasks = tower_tasks(driver, seed, str(out / "cache"))
        try:
            first_check()
        except _SetupDone:
            return marks
        results = [driver.run_task(task) for task in tasks]
        marks["end"] = time.monotonic()
        records = [record for record, _ in results]
        durations = {record["id"]: seconds for record, seconds in results}
    else:
        run_campaign = driver.run_campaign

        def hooked(*args, **kwargs):
            first_check()
            return run_campaign(*args, **kwargs)

        driver.run_campaign = hooked
        argv = CLI_ARGS[workload] + ["--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]
        try:
            marks["exit_code"] = driver.main(argv)
        except _SetupDone:
            return marks
        finally:
            driver.run_campaign = run_campaign
        marks["end"] = time.monotonic()
        records = json.loads((out / "report.json").read_text())["checks"]
        durations = json.loads((out / "run_meta.json").read_text())["durations_seconds"]
    marks["records"] = records
    marks["durations"] = durations
    return marks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*CLI_ARGS, "tower"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    result = run_pass(args.workload, args.seed, args.jobs, Path(args.out),
                      setup_only=args.setup_only, tracer=tracer)
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
