"""Benchmark harness for depthzero.

    python3 perfbench/run.py --workload identity --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --write-reference --workload tower --seeds 0-31

Each pass runs in a fresh interpreter (perfbench/child.py) against the
package in ``src/`` of the checkout this file sits in.  Untraced, a run
makes SETUP_PROBES set-up probes, then passes until the next one would
end after --seconds, and reports medians over them.  Traced, it makes one
untraced pass and traced passes (perfbench/spans.py) and reports the
per-layer metrics.  Every pass goes through the correctness gate.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = {"identity": 1, "all-j2": 2, "tower": 1}  # name -> --jobs
SETUP_PROBES = 10
HARD_LIMIT_S = 170  # a run must end within 180 s; passes past this are killed
SEED_RANGE = 2**32  # the tower cache header stores the seed as a uint32

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
CAMPAIGNS = ("chevalley", "cohomology", "identity", "thresholds", "uniqueness")
# per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    "charformula.theta.calls": "count",
    "charformula.theta.self_s": "s",
    "charformula.orbit_sum.calls": "count",
    "charformula.orbit_sum.self_s": "s",
    "charformula.denominator.calls": "count",
    "charformula.denominator.self_s": "s",
    "charformula.denominator.distinct_ratio": "ratio",
    "charformula.rho_shift_solve.s": "s",
    "charformula.make_context.calls": "count",
    "characters.eval_exponent.calls": "count",
    "characters.eval_exponent.self_s": "s",
    "characters.enumerate.s": "s",
    "tori.weyl_apply.calls": "count",
    "tori.weyl_apply.self_s": "s",
    "tori.weyl_group_ops.calls": "count",
    "tori.weyl_group_ops.self_s": "s",
    "tori.pair_model.calls": "count",
    "tori.pair_model.self_s": "s",
    "tori.tate_cohomology.s": "s",
    "tori.iter_strongly_regular.s": "s",
    "cyclo.sum_of_roots.calls": "count",
    "cyclo.sum_of_roots.self_s": "s",
    "cyclo.mul.calls": "count",
    "cyclo.mul.self_s": "s",
    "cyclo.eq.calls": "count",
    "ffield.build.calls": "count",
    "ffield.build.s": "s",
    "ffield.build.entries": "count",
    "ffield.build.entries_per_s": "1/s",
    "ffield.build.unique_ratio": "ratio",
    "ffield.build.peak_bytes_per_entry": "B/entry",
    "ffield.cache.hits": "count",
    "ffield.cache.misses": "count",
    "ffield.add.calls": "count",
    "localmodel.leading_diff.calls": "count",
    "localmodel.leading_diff.self_s": "s",
    "localmodel.eta_exponent.calls": "count",
    "localmodel.uv_ops.calls": "count",
    "dualgroup.sp_mul.calls": "count",
    "dualgroup.sp_mul.self_s": "s",
    "dualgroup.checks.s": "s",
    "snf.smith_normal_form.calls": "count",
    "snf.smith_normal_form.s": "s",
    "uniqueness.threshold_scan.s": "s",
    "uniqueness.rigidity.s": "s",
    "uniqueness.excluded_count.s": "s",
    "driver.checks": "count",
    **{f"driver.check_s.{c}": "s" for c in CAMPAIGNS},
    "driver.longest_check_s": "s",
    "driver.pool_idle_s": "s",
    "driver.emit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# passes


class PassError(RuntimeError):
    """A pass crashed, overran the run's time limit or wrote no result."""


def run_pass(workload, seed, jobs, work, *, trace=False, setup_only=False, hard_deadline):
    """Spawn one child pass; returns its measurements and records."""
    out = work / f"pass{len(list(work.iterdir()))}"
    out.mkdir()
    result_file = out / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--out", str(out),
           "--result", str(result_file)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "DEPTHZERO_CACHE"}
    with open(out / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                cwd=out, start_new_session=True)
        status, usage = _wait(proc, hard_deadline)
    if status != 0 or not result_file.exists():
        tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
        raise PassError(f"{workload} pass exited with status {status}\n{tail}")
    res = json.loads(result_file.read_text())
    res["setup_s"] = res["first"] - spawn
    res["elapsed"] = time.monotonic() - spawn
    if not setup_only:
        res["wall_s"] = res["end"] - res["first"]
        res["cpu_s"] = usage.ru_utime + usage.ru_stime - res["cpu_first"]
        # ru_maxrss of a reaped child is the largest of it and its reaped workers
        res["peak_rss_mb"] = usage.ru_maxrss / 1024
    return res


def _wait(proc, hard_deadline):
    """Wait for the child, which joins its pool workers; kill its session past
    the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > hard_deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return f"killed at the {HARD_LIMIT_S} s limit", usage
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# correctness gate


def record_digest(record) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def expected_digests(reference, workload, seed):
    """{check id: digest} stored for this workload and seed, or None."""
    entry = reference.get(workload)
    if entry is None or str(seed) not in entry["seeds"]:
        return None
    return dict(zip(entry["ids"], entry["seeds"][str(seed)]))


class Gate:
    """The correctness gate: counts attempted and failed checks over every
    pass of a run.

    A record fails when it is not PASS or its digest differs from the one
    stored for this workload and seed.  For a seed with no stored digests,
    the first pass stands in for the reference, so every later pass must
    reproduce it.  A stored check that a pass does not return counts as
    attempted and failed, and so does every check of a pass that crashed.
    """

    def __init__(self, workload, seed, reference=None):
        reference = load_reference() if reference is None else reference
        self.expected = expected_digests(reference, workload, seed)
        self.stored = self.expected is not None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, records, label):
        digests = {r["id"]: record_digest(r) for r in records}
        want = self.expected
        failed = sum(1 for r in records if r["outcome"] != "PASS"
                     or (want is not None and want.get(r["id"]) != digests[r["id"]]))
        missing = 0 if want is None else len(set(want) - set(digests))
        if want is None:
            self.expected = digests
        self.attempted += len(records) + missing
        self.failed += failed + missing
        if failed + missing:
            self.notes.append(f"{label}: {failed + missing} of {len(records) + missing} "
                              "checks failed the gate")

    def crash(self, exc, label):
        count = len(self.expected) if self.expected else 1
        self.attempted += count
        self.failed += count
        self.notes.append(f"{label}: {exc}")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setups, passes) -> dict:
    """Medians over the passes (set-up: over every probe and pass)."""
    values = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    return {name: {"value": statistics.median(values[name]), "unit": unit,
                   "runs": len(values[name])} for name, unit in END_TO_END}


def layer_metrics(traced, untraced, jobs) -> dict:
    """Per-layer metrics of one traced pass, with the pool figures taken
    from the untraced pass."""
    tr = traced["trace"]
    st = tr["stats"]

    # "<group>.calls", "<group>.s" and "<group>.self_s" read the span aggregates
    m = {}
    for name in LAYER_UNITS:
        group, _, figure = name.rpartition(".")
        if group in st and figure in ("calls", "s", "self_s"):
            m[name] = st[group][("calls", "s", "self_s").index(figure)]

    def calls(group):
        return st[group][0]

    def outer_s(group):
        return st[group][1]

    m["charformula.denominator.distinct_ratio"] = (
        tr["denominator_distinct"] / calls("charformula.denominator")
        if calls("charformula.denominator") else 0.0)

    builds = tr["builds"]  # (p, e, level, seed, entries, tracemalloc peak)
    m["ffield.build.entries"] = sum(b[4] for b in builds)
    m["ffield.build.entries_per_s"] = (
        tr["walked_entries"] / outer_s("ffield.walk") if outer_s("ffield.walk") else 0.0)
    m["ffield.build.unique_ratio"] = (
        len({tuple(b[:4]) for b in builds}) / len(builds) if builds else 0.0)
    if builds:
        largest = max(b[4] for b in builds)
        m["ffield.build.peak_bytes_per_entry"] = max(
            b[5] for b in builds if b[4] == largest) / largest
    else:
        m["ffield.build.peak_bytes_per_entry"] = 0.0
    m["ffield.cache.hits"] = tr["cache"]["hits"]
    m["ffield.cache.misses"] = tr["cache"]["misses"]

    checks = tr["checks"]
    m["driver.checks"] = len(traced["records"])
    for campaign in CAMPAIGNS:
        m[f"driver.check_s.{campaign}"] = sum(
            (s for cid, s in checks if cid.split("/")[0] == campaign), 0.0)
    m["driver.longest_check_s"] = max((s for _, s in checks), default=0.0)
    m["driver.pool_idle_s"] = jobs * untraced["wall_s"] - sum(untraced["durations"].values())
    m["driver.emit_s"] = outer_s("driver.emit")
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {name: {"value": m[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


# ---------------------------------------------------------------------------
# runs


def environment(seed) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def run_untraced(workload, seed, seconds, work, gate, hard_deadline):
    jobs = WORKLOADS[workload]
    deadline = time.monotonic() + seconds

    def probes():
        return [run_pass(workload, seed, jobs, work, setup_only=True,
                         hard_deadline=hard_deadline) for _ in range(SETUP_PROBES // 2)]

    # half the probes before the passes and half after, so that a slow spell
    # of the shared host does not cover all of them
    setups = probes()
    probes_s = sum(s["elapsed"] for s in setups)  # the later probes take as long
    passes = []
    while True:
        res = run_pass(workload, seed, jobs, work, hard_deadline=hard_deadline)
        gate.add(res["records"], f"pass {len(passes) + 1}")
        passes.append(res)
        typical = statistics.median(p["elapsed"] for p in passes)
        if time.monotonic() + typical + probes_s > deadline:
            break
    setups += probes()
    # untimed passes: --jobs independence, and a second pass to compare
    # against when no digest is stored for this seed
    if jobs > 1:
        res = run_pass(workload, seed, 1, work, hard_deadline=hard_deadline)
        gate.add(res["records"], "--jobs 1 pass")
    elif not gate.stored and len(passes) == 1:
        res = run_pass(workload, seed, jobs, work, hard_deadline=hard_deadline)
        gate.add(res["records"], "repeat pass")
    return end_to_end(setups + passes, passes), {}


def run_traced(workload, seed, seconds, work, gate, hard_deadline):
    """One untraced pass, then traced passes in-process (--jobs 1, so that
    every check runs under the spans) until --seconds is used up."""
    jobs = WORKLOADS[workload]
    deadline = time.monotonic() + seconds
    untraced = run_pass(workload, seed, jobs, work, hard_deadline=hard_deadline)
    gate.add(untraced["records"], "untraced pass")
    traced = []
    while True:
        res = run_pass(workload, seed, 1, work, trace=True, hard_deadline=hard_deadline)
        gate.add(res["records"], f"traced pass {len(traced) + 1}")
        traced.append(res)
        typical = statistics.median(p["elapsed"] for p in traced)
        if time.monotonic() + typical > deadline:
            break
    per_pass = [layer_metrics(t, untraced, jobs) for t in traced]
    metrics = {name: {"value": statistics.median(p[name]["value"] for p in per_pass),
                      "unit": unit} for name, unit in LAYER_UNITS.items()}
    median_pass = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
    return metrics, {"longest_check": max(median_pass["trace"]["checks"], key=lambda c: c[1]),
                     "layer_self_s": layer_self_seconds(median_pass),
                     "traced_wall_s": median_pass["wall_s"]}


def layer_self_seconds(traced) -> dict:
    """Self seconds per module, summed over its span groups."""
    out = {}
    for group, (_calls, _outer, own) in traced["trace"]["stats"].items():
        module = group.split(".")[0]
        out[module] = out.get(module, 0.0) + own
    return out


def run_workload(workload, seed, seconds, trace) -> tuple[dict, int]:
    """Measure one workload; prints the report and returns (result, exit code)."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    env = environment(seed)
    gate = Gate(workload, seed)
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    extra = {}
    metrics = {}
    try:
        runner = run_traced if trace else run_untraced
        metrics, extra = runner(workload, seed, seconds, work, gate, hard_deadline)
    except PassError as exc:
        gate.crash(exc, "pass")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = list(os.getloadavg())
    env["run_s"] = time.monotonic() - start
    correct = gate.failed == 0 and bool(metrics)
    print(f"== {workload} ({'traced' if trace else 'untraced'}, seed {seed}, "
          f"reference {'stored' if gate.stored else 'not stored: passes compared'})")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        runs = f"  (median of {metric['runs']})" if "runs" in metric else ""
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}{runs}")
    failed_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_frac':42s} {failed_frac:>16.6g} ratio  "
          f"({gate.failed} of {gate.attempted} checks)")
    if extra:
        cid, secs = extra["longest_check"]
        print(f"  longest check: {cid} ({secs:.3f} s)")
        wall = extra["traced_wall_s"]
        shares = ", ".join(f"{mod} {s:.2f} s ({s / wall:.0%})"
                           for mod, s in sorted(extra["layer_self_s"].items(),
                                                key=lambda kv: -kv[1]))
        print(f"  self time by layer, of traced wall {wall:.2f} s: {shares}")
    for note in gate.notes:
        print(f"  gate: {note}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    return result, 0 if correct else 1


# ---------------------------------------------------------------------------
# reference digests


def parse_seeds(text) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def write_reference(workloads, seeds) -> int:
    """Store per-check digests from --jobs 1 passes of the current package.

    Only PASS records are stored; run this on a commit whose reports are
    known good, since every later run is held to these digests.
    """
    reference = load_reference()
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in workloads:
            for seed in seeds:
                res = run_pass(workload, seed, 1, work, hard_deadline=time.monotonic() + 900)
                records = sorted(res["records"], key=lambda r: r["id"])
                bad = [r["id"] for r in records if r["outcome"] != "PASS"]
                if bad:
                    print(f"{workload} seed {seed}: not PASS: {bad}", file=sys.stderr)
                    return 1
                entry = reference.setdefault(workload, {"ids": [r["id"] for r in records],
                                                        "seeds": {}})
                if entry["ids"] != [r["id"] for r in records]:
                    print(f"{workload} seed {seed}: check ids changed", file=sys.stderr)
                    return 1
                entry["seeds"][str(seed)] = [record_digest(r) for r in records]
                print(f"{workload} seed {seed}: {len(records)} records")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(format_reference(reference))
    return 0


def format_reference(reference) -> str:
    """JSON with one line per check-id list and per seed, for readable diffs."""
    blocks = []
    for workload, entry in sorted(reference.items()):
        seeds = sorted(entry["seeds"].items(), key=lambda kv: int(kv[0]))
        seed_lines = ",\n".join(f"   {json.dumps(s)}: {json.dumps(d)}" for s, d in seeds)
        blocks.append(f" {json.dumps(workload)}: {{\n  \"ids\": {json.dumps(entry['ids'])},\n"
                      f"  \"seeds\": {{\n{seed_lines}\n  }}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="depthzero benchmark harness")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seeds", default="0", help="for --write-reference, e.g. 0-31")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "depthzero" / "__init__.py").exists():
        print(f"error: no depthzero package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.write_reference:
        return write_reference(workloads, parse_seeds(args.seeds))
    results = {}
    code = 0
    for workload in workloads:
        results[workload], status = run_workload(workload, args.seed % SEED_RANGE,
                                                 args.seconds, bool(args.trace))
        code = max(code, status)
    print(json.dumps(results[workloads[0]] if args.workload else results))
    return code


if __name__ == "__main__":
    sys.exit(main())
