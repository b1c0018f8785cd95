import gc
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from depthzero import charformula, driver, tori, uniqueness
from depthzero.characters import enumerate_characters, enumerate_regular_characters
from depthzero.driver import (
    Config,
    ConfigError,
    build_parser,
    build_tasks,
    main,
    read_config_file,
    resolve_config,
)
from depthzero.ffield import FieldTower

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _args(*argv):
    return build_parser().parse_args(list(argv))


def _task_ids(*argv):
    args = _args(*argv)
    return [t["id"] for t in build_tasks(args.subcommand, resolve_config(args))]


def test_config_defaults_and_flags():
    cfg = resolve_config(_args("all"))
    assert cfg.qs is None and cfg.kinds == [1, 2]
    cfg = resolve_config(_args("identity", "--q", "3,5", "--kind", "2", "--eta-branch", "minus",
                               "--jobs", "2", "--seed", "9"))
    assert cfg.qs == [3, 5]
    assert cfg.kinds == [2]
    assert cfg.eta_branches == [-1]
    assert cfg.jobs == 2 and cfg.seed == 9


def test_config_rejects_bad_values(tmp_path):
    for flag, value in [("--q", "4"), ("--q", "15"), ("--jobs", "0"), ("--format", "xml"),
                        ("--epsilon-gt", "2"), ("--q", "3,3"), ("--q", ","), ("--format", ","),
                        ("--format", "json,json")]:
        with pytest.raises(ConfigError):
            resolve_config(_args("identity", flag, value))
    # list options with no entry or a repeated entry, from a config file
    path = tmp_path / "bad.cfg"
    for line, key in [("kind = 1,1", "kind"), ("kind =", "kind"), ("q = 5,3,5", "q"),
                      ("eta_branch = 1,1", "eta_branch"), ("eta_branch =", "eta_branch"),
                      ("format =", "format"), ("format = md,md", "format")]:
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"^{key}: "):
            resolve_config(_args("identity", "--config", str(path)))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nq = 3,5\nkind = both\nseed = 4\nformat = json,md\n")
    values = read_config_file(str(path))
    assert values["q"] == "3,5"
    cfg = resolve_config(_args("identity", "--config", str(path)))
    assert cfg.qs == [3, 5] and cfg.seed == 4 and cfg.formats == ["json", "md"]
    # flags override the file
    cfg = resolve_config(_args("identity", "--config", str(path), "--seed", "11"))
    assert cfg.seed == 11


def test_config_file_unknown_key_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("qq = 3\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(str(path))
    assert "qq" in str(err.value)


def test_cache_env_variable_is_ignored(tmp_path, monkeypatch):
    """No campaign builds a field tower, so nothing reads a tower cache:
    DEPTHZERO_CACHE sets nothing, while --cache-dir still parses."""
    monkeypatch.setenv("DEPTHZERO_CACHE", str(tmp_path))
    assert resolve_config(_args("identity")).cache_dir is None
    flagged = resolve_config(_args("identity", "--cache-dir", str(tmp_path / "flag")))
    assert flagged.cache_dir == str(tmp_path / "flag")


def test_task_ids_unique_and_sorted():
    cfg = Config()
    cfg.validate()
    tasks = build_tasks("all", cfg)
    ids = [t["id"] for t in tasks]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for task in tasks:
        assert task["claim"]
        assert task["fn"] in driver.REGISTRY


_DUPLICATES = """
import importlib.util
import json
from depthzero import driver

def load_with(row):
    # the driver module run from its source with one more campaign row
    spec = importlib.util.find_spec("depthzero.driver")
    source = spec.loader.get_source(spec.name).replace(
        "\\nSUBCOMMANDS = ", f"\\nCHECKS = CHECKS + (CHECKS[0]._replace({row}),)\\nSUBCOMMANDS = ")
    exec(compile(source, spec.origin, "exec"), importlib.util.module_from_spec(spec).__dict__)

raised = []
try:  # the loaded module raises its own class of the name
    load_with("id='chevalley/again'")
except ValueError as exc:
    raised.append(f"{type(exc).__name__}: {exc}")
driver.CHECKS = driver.CHECKS + (driver.CHECKS[0]._replace(name="again"),)
try:
    driver.build_tasks("chevalley", driver.Config())
except driver.DuplicateCheckError as exc:
    raised.append(f"{type(exc).__name__}: {exc}")
print(json.dumps(raised))
"""


def test_duplicate_check_names_and_ids_raise(run_optimized):
    """A check name on two campaign rows, or a check id on two tasks,
    raises a named error, with asserts stripped too."""
    assert run_optimized(_DUPLICATES) == [
        "DuplicateCheckError: check name on two rows: 'pinning'",
        "DuplicateCheckError: check id on two tasks: 'chevalley/pinning'",
    ]


# id lists recorded from the hand-written task builders the check table replaced
def test_task_ids_of_irregular_grids():
    assert _task_ids("identity", "--q", "3,11", "--kind", "2", "--eta-branch", "minus") == [
        "identity/denominator-representatives-k2-q3",
        "identity/eta-branch-k2-q3",
        "identity/formula-equals-orbit-sum-k2-q11-minus",
        "identity/formula-equals-orbit-sum-k2-q3-minus",
        "identity/lift-independence-k2-q3",
        "identity/packet-conjugation-k2-q3",
        "identity/positive-systems-k2-q3",
        "identity/rho-shift-unique-k2-q3",
        "identity/split-vs-combined-k2-q3",
    ]
    assert _task_ids("uniqueness", "--q", "5,11", "--kind", "2") == [
        "uniqueness/excluded-crosscheck-k2-q5",
        "uniqueness/forward-conjugate-k2-q11",
        "uniqueness/forward-conjugate-k2-q5",
        "uniqueness/locus-ratio-k2-q5",
        "uniqueness/nonvanishing-k2-q5",
        "uniqueness/rigidity-k2-q11",
        "uniqueness/rigidity-k2-q5",
    ]
    assert _task_ids("chevalley", "--kind", "1") == [
        "chevalley/coroot-conjugation",
        "chevalley/cover-values-k1",
        "chevalley/coxeter-lift-fourth",
        "chevalley/dual-weyl-action",
        "chevalley/lift-independence-k1",
        "chevalley/longest-lift-square",
        "chevalley/pinning",
        "chevalley/reflection-squares",
        "chevalley/structure-signs",
    ]


def test_pinned_identity_fails_with_its_row_witness(monkeypatch):
    # the row's predicate goes through the module global, so rebinding it counts
    monkeypatch.setattr(driver, "reflection_square_check", lambda pin: False)
    task = next(t for t in build_tasks("chevalley", Config()) if t["fn"] == "reflection_squares")
    record, _ = driver.run_task(task)
    assert record["outcome"] == "FAIL"
    assert record["witness"] == {"identity": "n^2 = coroot(-1)"}


def test_benchmark_tower_tasks_resolve(tmp_path):
    """perfbench/child.py builds its tower tasks from identity_tasks and
    _base_params; every one must name a registered check."""
    spec = importlib.util.spec_from_file_location("child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tasks = child.tower_tasks(driver, 0, str(tmp_path))
    assert len(tasks) == 12
    for task in tasks:
        assert driver.REGISTRY[task["fn"]].claim == task["claim"]


def test_small_run_and_report_files(tmp_path):
    code = main([
        "identity", "--q", "3", "--kind", "2", "--out", str(tmp_path / "rep"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert {"config_echo", "checks"} <= set(report)
    assert all(r["outcome"] == "PASS" for r in report["checks"])
    md = (tmp_path / "rep" / "report.md").read_text()
    assert md.count("| identity/") == len(report["checks"])
    meta = json.loads((tmp_path / "rep" / "run_meta.json").read_text())
    assert set(meta["durations_seconds"]) == {r["id"] for r in report["checks"]}
    assert meta["jobs"] == 1 and "jobs" not in report["config_echo"]
    assert meta["peak_rss_mb"] > 0
    # per generation, youngest first; this process has collected something
    assert set(meta["gc"]) == {"collections", "collected"}
    assert [len(counts) for counts in meta["gc"].values()] == [len(gc.get_stats())] * 2
    assert meta["gc"]["collections"][0] > 0
    assert set(meta["environment"]) == {"python", "numpy", "cpu_count", "openblas_threads",
                                       "git_sha"}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT / "src" / "depthzero",
                          capture_output=True, text=True)
    assert meta["environment"]["git_sha"] == (head.stdout.strip() if head.returncode == 0
                                              else None)
    assert not {"peak_rss_mb", "gc", "environment"} & set(report)
    assert "git_sha" not in (tmp_path / "rep" / "report.json").read_text()
    # no timing data inside the check records themselves
    for rec in report["checks"]:
        assert "wall" not in json.dumps(rec) and "duration" not in json.dumps(rec)


# ---------------------------------------------------------------------------
# the git sha of run_meta.json, read from the files of temporary repositories


def _git(cwd, *args) -> str:
    env = dict(os.environ, GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1",
               GIT_AUTHOR_NAME="a", GIT_AUTHOR_EMAIL="a@example.com",
               GIT_COMMITTER_NAME="a", GIT_COMMITTER_EMAIL="a@example.com")
    return subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A repository with two commits on main; ``src/pkg`` stands for the package."""
    root = tmp_path / "repo"
    (root / "src" / "pkg").mkdir(parents=True)
    _git(root, "init", "-q", "-b", "main")
    for text in ("one", "two"):
        (root / "src" / "pkg" / "f.txt").write_text(text)
        _git(root, "add", "-A")
        _git(root, "commit", "-q", "-m", text)
    return root


def _forbid_subprocesses(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    for name in ("run", "Popen"):
        monkeypatch.setattr(subprocess, name, forbidden)


def _checkout(repo, layout):
    """The package directory of ``repo`` laid out as ``layout``."""
    if layout.startswith("worktree"):
        _git(repo, "worktree", "add", "-q", "-b", "side", str(repo.parent / "wt"), "HEAD~1")
        repo = repo.parent / "wt"
        assert (repo / ".git").is_file()
    if layout.endswith("packed"):
        _git(repo, "pack-refs", "--all")
        assert not (repo.parent / "repo" / ".git" / "refs" / "heads" / "main").exists()
    if layout == "detached":
        _git(repo, "checkout", "-q", "--detach", "HEAD~1")
    return repo / "src" / "pkg"


@pytest.mark.parametrize("layout", ["loose", "packed", "detached", "worktree",
                                    "worktree-packed"])
def test_git_sha_reads_head_from_the_repository_files(monkeypatch, repo, layout):
    package = _checkout(repo, layout)
    head = _git(package, "rev-parse", "HEAD")
    _forbid_subprocesses(monkeypatch)
    assert driver._git_sha(package) == head


def test_git_sha_is_null_outside_a_repository(monkeypatch, tmp_path):
    with pytest.raises(subprocess.CalledProcessError):
        _git(tmp_path, "rev-parse", "HEAD")
    _forbid_subprocesses(monkeypatch)
    assert driver._git_sha(tmp_path) is None


def test_git_sha_is_null_without_git(monkeypatch, tmp_path):
    """An unborn branch has no ref in the files, so git is asked; without
    git, or where it fails, the sha is null."""
    _git(tmp_path, "init", "-q", "-b", "main")
    assert driver._git_sha(tmp_path) is None
    calls = []

    def missing(*args, **kwargs):
        calls.append(args[0])
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", missing)
    assert driver._git_sha(tmp_path) is None
    assert calls == [["git", "rev-parse", "HEAD"]]


@pytest.mark.parametrize("layout", ["loose", "packed"])
def test_identity_run_starts_no_subprocess(monkeypatch, repo, tmp_path, layout):
    package = _checkout(repo, layout)
    head = _git(package, "rev-parse", "HEAD")
    monkeypatch.setattr(driver, "_git_sha", partial(driver._git_sha, package))
    _forbid_subprocesses(monkeypatch)
    assert main(["identity", "--q", "3", "--kind", "1", "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["environment"]["git_sha"] == head


def test_determinism_bytes(tmp_path):
    argv = ["thresholds", "--q-max", "60", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "report.md", "thresholds.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_threshold_csv_columns(tmp_path):
    assert main(["thresholds", "--q-max", "30", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "thresholds.csv").read_text().splitlines()
    assert lines[0] == "kind,q,excluded,torus_order,ratio,bound,holds"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "3"
    assert first[2] == "12" and first[3] == "16"
    assert first[4] == "3/4" and first[5] == "1/8" and first[6] == "false"


def test_reused_out_keeps_no_stale_report(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["thresholds", "--q-max", "30", *out]) == 0
    assert (tmp_path / "thresholds.csv").exists()
    # a run with no threshold rows
    assert main(["chevalley", "--kind", "1", *out]) == 0
    assert not (tmp_path / "thresholds.csv").exists()
    # formats that were not requested
    assert main(["thresholds", "--q-max", "30", "--format", "json", *out]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["report.json", "run_meta.json"]


def test_budget_exceeded_yields_skipped_and_exit_3(tmp_path):
    code = main([
        "thresholds", "--q-max", "30", "--out", str(tmp_path), "--budget-evals", "100",
    ])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    outcomes = {r["outcome"] for r in report["checks"]}
    assert "SKIPPED" in outcomes and "FAIL" not in outcomes
    skipped = [r for r in report["checks"] if r["outcome"] == "SKIPPED"]
    assert all("reason" in r["witness"] for r in skipped)
    md = (tmp_path / "report.md").read_text()
    assert "SKIPPED" in md


@pytest.mark.parametrize("budget,row_bytes,count", [
    (2**19, 64, 20_000), (200, 64, 10), (200, 64, 9), (10, 64, 3), (2**19, 128, 0),
])
def test_block_walker_covers_the_grid_within_the_budget(monkeypatch, budget, row_bytes, count):
    """``_blocks`` cuts range(count) into slices, in order, with no gap or
    overlap, of budget // row_bytes rows (one where that is 0), the last
    shorter; it reads ``BLOCK_BYTES`` when it is called."""
    monkeypatch.setattr(driver, "BLOCK_BYTES", budget)
    slices = list(driver._blocks(count, row_bytes))
    step = max(1, budget // row_bytes)
    assert [i for s in slices for i in range(count)[s]] == list(range(count))
    assert [s.stop - s.start for s in slices[:-1]] == [step] * (len(slices) - 1)
    assert len(slices) == -(-count // step)


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["identity", "--q", "4", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "configuration error" in out
    # values that do not parse name their key instead of escaping as a traceback
    assert main(["identity", "--q", "abc", "--out", str(tmp_path)]) == 2
    assert "configuration error: q: cannot parse 'abc'" in capsys.readouterr().out
    path = tmp_path / "bad.cfg"
    path.write_text("seed = x\n")
    assert main(["identity", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "configuration error: seed: cannot parse 'x'" in capsys.readouterr().out
    # a repeated q is a configuration error, caught before any task is built
    assert main(["identity", "--q", "3,3", "--out", str(tmp_path / "dup")]) == 2
    assert "configuration error: q: repeated entry" in capsys.readouterr().out
    assert not (tmp_path / "dup").exists()


def test_parallel_jobs_match_serial(tmp_path, monkeypatch):
    argv = ["cohomology", "--q", "3", "--kind", "1"]
    assert main(argv + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    assert main(argv + ["--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
    # the worker count lives in run_meta.json only, so the reports are
    # byte-identical regardless of parallelism
    for name in ("report.json", "report.md"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
    # fewer tasks than processes: one share per task, so a single child
    tasks = build_tasks("cohomology", Config())[:2]
    serial, serial_durations, _ = driver.run_campaign(tasks, jobs=1)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    par, par_durations, _ = driver.run_campaign(tasks, jobs=3)
    assert forks == [os.getpid()]
    assert par == serial
    assert par_durations.keys() == serial_durations.keys() == {t["id"] for t in tasks}


def test_all_matches_golden_reports(tmp_path):
    for jobs in ("2", "3"):
        out = tmp_path / jobs
        assert main(["all", "--jobs", jobs, "--out", str(out)]) == 0
        for name in ("report.json", "report.md", "thresholds.csv"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), (jobs, name)
        records = json.loads((out / "report.json").read_text())["checks"]
        durations = json.loads((out / "run_meta.json").read_text())["durations_seconds"]
        assert durations.keys() == {r["id"] for r in records}, jobs


def test_cli_output_survives_the_frozen_exit(tmp_path):
    """``python -m depthzero`` in a process of its own, with stdout piped
    and so block-buffered, so its exit runs the package's ``gc.freeze`` and
    then flushes the stream: every outcome line and report file is complete."""
    out = tmp_path / "out"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-m", "depthzero", "all", "--jobs", "2",
                           "--out", str(out)], cwd=tmp_path, capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    *outcomes, files = done.stdout.splitlines()
    records = json.loads((out / "report.json").read_text())["checks"]
    assert len(records) == 109
    assert outcomes == [f"{r['outcome']:7s} {r['id']}" for r in records]
    assert files.startswith("report files: ") and str(out / "run_meta.json") in files
    for name in ("report.json", "report.md", "thresholds.csv"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _registered_task(monkeypatch, name, check):
    """A task dict of ``check``, registered as ``name`` for one test."""
    row = driver.Check(f"cohomology/{name}", name, check, claim=name)
    monkeypatch.setitem(driver.REGISTRY, name, row)
    return {"id": row.id, "claim": row.claim, "fn": name, "params": {}}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_that_dies_is_named_and_reaped(monkeypatch):
    """Round-robin puts the second task in the forked child's share."""
    parent = os.getpid()

    def dies_in_a_child(params):
        if os.getpid() != parent:
            os._exit(7)
        return driver._ok()

    tasks = [_registered_task(monkeypatch, "passes", lambda params: driver._ok()),
             _registered_task(monkeypatch, "dies", dies_in_a_child)]
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"worker process \d+ exited with status 7"):
        driver.run_campaign(tasks, jobs=2)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_truncated_stream_is_named(monkeypatch):
    """A child that exits 0 after writing part of its results."""
    monkeypatch.setattr(pickle, "dump", lambda obj, file: file.write(pickle.dumps(obj)[:-1]))
    tasks = [_registered_task(monkeypatch, name, lambda params: driver._ok())
             for name in ("first", "second")]
    with pytest.raises(RuntimeError, match=r"worker process \d+ sent a truncated stream"):
        driver.run_campaign(tasks, jobs=2)
    _assert_no_child_left()


def test_interrupt_in_this_process_share_kills_the_children(monkeypatch):
    """The first task, in this process's share, is interrupted while the
    child sleeps through the second: the child is killed, not waited for."""
    def interrupted(params):
        raise KeyboardInterrupt

    def slow(params):
        time.sleep(60)
        return driver._ok()

    tasks = [_registered_task(monkeypatch, "interrupted", interrupted),
             _registered_task(monkeypatch, "slow", slow)]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        driver.run_campaign(tasks, jobs=2)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def _allowed_cpus():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the OS does not report CPU affinity")
    return sorted(os.sched_getaffinity(0))


def _cohomology_q3(out, jobs, cpus=None):
    """``python -m depthzero cohomology --q 3`` in a fresh interpreter,
    under the affinity mask ``cpus`` if given; returns its run_meta.json."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "depthzero", "cohomology", "--q", "3", "--jobs", str(jobs),
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=None if cpus is None else partial(os.sched_setaffinity, 0, cpus))
    assert done.returncode == 0, done.stderr
    return json.loads((out / "run_meta.json").read_text())


def test_shares_run_on_distinct_cpus(tmp_path):
    allowed = _allowed_cpus()
    if len(allowed) < 2:
        pytest.skip("one CPU allowed")
    meta = _cohomology_q3(tmp_path, jobs=2)
    assert meta["share_cpus"] == [[allowed[0]], [allowed[1]]]


def test_shares_wrap_onto_one_allowed_cpu(tmp_path):
    cpu = _allowed_cpus()[-1]
    meta = _cohomology_q3(tmp_path / "one", jobs=2, cpus={cpu})
    assert meta["share_cpus"] == [[cpu], [cpu]]
    assert main(["cohomology", "--q", "3", "--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
    for name in ("report.json", "report.md"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


@pytest.mark.parametrize("missing", [False, True])
def test_refused_affinity_leaves_the_shares_unpinned(tmp_path, monkeypatch, missing):
    """os.sched_setaffinity raises OSError, or the OS has none."""
    allowed = _allowed_cpus()

    def refuse(pid, cpus):
        raise OSError("affinity refused")

    if missing:
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert main(["cohomology", "--q", "3", "--jobs", "2", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["share_cpus"] == [allowed, allowed]
    records = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert {r["outcome"] for r in records} == {"PASS"}


def test_campaign_gives_the_caller_its_affinity_back(monkeypatch):
    before = _allowed_cpus()
    tasks = build_tasks("cohomology", Config())[:4]
    _records, _durations, share_cpus = driver.run_campaign(tasks, jobs=3)
    assert sorted(os.sched_getaffinity(0)) == before
    assert share_cpus == [[before[k % len(before)]] for k in range(3)]
    # and on the way out of an interrupted share
    def interrupted(params):
        raise KeyboardInterrupt

    tasks = [_registered_task(monkeypatch, name, check) for name, check in
             (("interrupted", interrupted), ("passes", lambda params: driver._ok()))]
    with pytest.raises(KeyboardInterrupt):
        driver.run_campaign(tasks, jobs=2)
    assert sorted(os.sched_getaffinity(0)) == before
    _assert_no_child_left()


def _refuse_field_towers(monkeypatch):
    """FieldTower.build raises, and so does the scalar denominators' cached
    tower, which a test run may have built before."""
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign check built a field tower")

    monkeypatch.setattr(FieldTower, "build", classmethod(refuse))
    monkeypatch.setattr(charformula, "_tower", refuse)


def test_campaign_builds_no_field_tower(monkeypatch, tmp_path):
    """The denominators read valuations only: all of `all`, and the
    benchmark's tower tasks (split-vs-combined and rho-shift-unique at
    q = 27 and 47), PASS with FieldTower.build raising.  The checks work on
    int64 rows, so they PASS with the torus element classes refusing
    construction too: only a FAIL witness builds one."""
    _refuse_field_towers(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("a passing check built a torus element object")

    for cls in (tori.T1Coinv, tori.T2Coinv, tori.T1Rational, tori.T2Rational):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert main(["all", "--jobs", "1", "--out", str(tmp_path)]) == 0
    for name in ("report.json", "report.md", "thresholds.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    spec = importlib.util.spec_from_file_location("child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    records = [driver.run_task(task)[0] for task in child.tower_tasks(driver, 0, str(tmp_path))]
    assert len(records) == 12
    assert [r["outcome"] for r in records] == ["PASS"] * 12, records


@pytest.mark.parametrize("q", [97, 101])
def test_denominators_past_the_table_memory_wall(monkeypatch, q):
    """Kind 2 at q = 97 and 101, where a level-4 Zech table would hold
    q^4 - 1 (88M resp. 104M) entries, several GB: both denominator checks
    PASS on both eta branches without a field tower."""
    _refuse_field_towers(monkeypatch)
    for fn in ("split_vs_combined", "rho_shift_unique"):
        for branch in (1, -1):
            params = {"kind": 2, "q": q, "branch": branch, "seed": 0, "epsilon_gt": 1,
                      "summation": "full"}
            record, _ = driver.run_task({"id": fn, "claim": "", "fn": fn, "params": params})
            assert record["outcome"] == "PASS", record


def test_summation_flag_accepted(tmp_path):
    # the packet check's one-class claim is about the full group at any --summation
    for kind in ("1", "2"):
        for summation in ("rotation", "trivial"):
            code = main([
                "identity", "--q", "3", "--kind", kind, "--summation", summation,
                "--out", str(tmp_path),
            ])
            assert code == 0, (kind, summation)


def test_epsilon_flag_scales_both_sides(tmp_path):
    assert main(["identity", "--q", "3", "--epsilon-gt", "-1", "--out", str(tmp_path)]) == 0


def _raising_check(params):
    raise RuntimeError(f"model broken at kind {params['kind']}")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_that_raises_fails_alone(monkeypatch, tmp_path, jobs):
    """An exception inside a check becomes that check's FAIL record; the
    other checks still run and the reports are written."""
    row = driver.Check("cohomology/raises", "raises", _raising_check, grid="k",
                       claim="a check whose model raises")
    monkeypatch.setattr(driver, "CHECKS", (*driver.CHECKS, row))
    monkeypatch.setitem(driver.REGISTRY, row.name, row)
    argv = ["cohomology", "--q", "3", "--kind", "1", "--jobs", jobs, "--out", str(tmp_path)]
    assert main(argv) == 1
    records = json.loads((tmp_path / "report.json").read_text())["checks"]
    failed = [r for r in records if r["outcome"] != "PASS"]
    assert failed == [{
        "id": "cohomology/raises-k1", "claim": "a check whose model raises",
        "params": {"kind": 1}, "outcome": "FAIL",
        "witness": {"error": "RuntimeError: model broken at kind 1"}, "info": {},
    }]
    assert len(records) == 7
    assert (tmp_path / "report.md").exists() and (tmp_path / "run_meta.json").exists()


def test_interrupt_inside_a_check_propagates(monkeypatch):
    def interrupted(params):
        raise KeyboardInterrupt

    row = driver.Check("cohomology/interrupted", "interrupted", interrupted, claim="stops")
    monkeypatch.setitem(driver.REGISTRY, row.name, row)
    with pytest.raises(KeyboardInterrupt):
        driver.run_task({"id": row.id, "claim": row.claim, "fn": row.name, "params": {}})


@pytest.mark.parametrize("kind,q", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_limited_pool_is_a_prefix_of_the_full_pool(kind, q):
    """The limited pool holds the first regular characters, in the order
    of the full pool; kind 1 at q = 3 has none and falls back to the
    first characters of the whole group."""
    regular = [chi.exponents for chi in enumerate_regular_characters(kind, q)]
    full, count = driver._character_pool(kind, q)
    limited, limited_count = driver._character_pool(kind, q, limit=6)
    full, limited = ([tuple(row) for row in rows.tolist()] for rows in (full, limited))
    if regular:
        assert full == regular and count == len(regular)
        assert limited == regular[:6] and limited_count == len(limited)
    else:
        assert count == limited_count == 0
        assert full == [chi.exponents for chi in enumerate_characters(kind, q)]
        assert limited == full[:6]


def test_traced_benchmark_names_resolve():
    """Every module, function, class and method that the traced benchmark
    wraps still exists, so a deletion in the package cannot leave
    ``perfbench/run.py --trace 1`` failing at install.  The wrappers are
    not installed: they would stay on the modules for later tests."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _group, module_name, attrs, _mode in spans.SPANS:
        module = sys.modules.get(f"depthzero.{module_name}")
        if module is None:
            missing.append(module_name)
            continue
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{attr}")
    assert missing == []


# ---------------------------------------------------------------------------
# negative controls for the FAIL branches of the structural checks: each
# break is rebound where the check looks it up, and the same parameters
# PASS without it


def _rebind(module, name, wrap):
    """A break that rebinds ``module.name`` to ``wrap(original)``."""

    def apply(monkeypatch):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))

    return apply


def _wrong_triple_product(sign_table):
    return lambda pin: (sign_table(pin)[0], 1)


def _sign_two_in_table(sign_table):
    def broken(pin):
        table, signed = sign_table(pin)
        return {**table, min(table): 2}, signed

    return broken


def _flip_cover_value(values):
    def broken(kind, order=24):
        out = dict(values(kind, order))
        out[max(out)] = -out[max(out)]
        return out

    return broken


def _tate(change):
    """``tate_cohomology`` with its (h1, h0, reps) passed through ``change``."""
    return lambda tate: lambda kind, q: change(*tate(kind, q))


def _collapse_norms(norms):
    return lambda kind, q, coords: norms(kind, q, coords) * 0


def _shrink_unit_axis(shape):
    return lambda kind, q: (shape(kind, q)[0] - 1, *shape(kind, q)[1:])


def _move_parity_norms(norms):
    """The norm of every class with a nonzero last parity moved by one."""
    def broken(kind, q, coords):
        out = norms(kind, q, coords)
        out[:, 0] = (out[:, 0] + (coords[:, -1] != 0)) % (q + 1 if kind == 1 else q * q + 1)
        return out

    return broken


def _raise_valuations(valuations):
    return lambda ctx, coords: valuations(ctx, coords) + 1


def _constant_denominator(_denominator):
    return lambda ctx, coords: np.zeros(len(coords), dtype=np.int64)


def _turn_minus_branch(denominator):
    return lambda ctx, coords: (denominator(ctx, coords) + 2 * (ctx.eta_branch < 0)) % 4


def _split_classes(classes):
    return lambda self, chi: tuple((name,) for cls in classes(self, chi) for name in cls)


def _merge_classes(classes):
    return lambda self, chi: (tuple(name for cls in classes(self, chi) for name in cls),)


def _exclude_everything(_count):
    return lambda kind, q: driver.rational_order(kind, q)


def _miscount(count):
    return lambda kind, q: count(kind, q) + 1


_ORDER = {"order": 24}
_TATE = {"kind": 1, "q": 3}
_TABLES = {"kind": 2, "q": 3, "branch": 1, "seed": 0, "summation": "full", "epsilon_gt": 1}
FAIL_BRANCHES = [  # (label, check, params, break, witness keys)
    ("structure-signs-product", "structure_signs", _ORDER,
     _rebind(driver, "reflection_sign_table", _wrong_triple_product), {"signed_triple_product"}),
    ("structure-signs-table", "structure_signs", _ORDER,
     _rebind(driver, "reflection_sign_table", _sign_two_in_table), {"table"}),
    ("cover-values", "cover_values", {**_ORDER, "kind": 1},
     _rebind(driver, "cover_class_values", _flip_cover_value), {"got", "expected"}),
    ("cohomology-orders", "tate_orders", _TATE,
     _rebind(driver, "tate_cohomology", _tate(lambda h1, h0, reps: (2 * h1, h0, reps))),
     {"orders", "expected"}),
    ("exact-sequence-orders", "exact_sequence", _TATE,
     _rebind(driver, "tate_cohomology", _tate(lambda h1, h0, reps: (h1, h0 + 1, reps))),
     {"h1", "rational", "coinvariants", "h0"}),
    ("exact-sequence-surjectivity", "exact_sequence", _TATE,
     _rebind(driver, "coinvariant_norm_array", _collapse_norms), {"norm_image", "rational"}),
    ("representatives", "tate_representatives", _TATE,
     _rebind(driver, "tate_cohomology", _tate(lambda h1, h0, reps: (h1, h0, reps[:-1]))),
     {"representatives"}),
    ("splitting-product", "splitting", _TATE,
     _rebind(driver, "coinvariant_shape", _shrink_unit_axis), {"class"}),
    ("splitting-norm-kernel", "splitting", _TATE,
     _rebind(driver, "coinvariant_norm_array", _move_parity_norms), {"class", "reason"}),
    ("lift-independence-valuations", "lift_independence_formula", _TABLES,
     _rebind(driver, "weyl_denominator_valuations", _raise_valuations), {"gamma", "valuations"}),
    ("lift-independence-sign-shift", "lift_independence_formula", _TABLES,
     _rebind(charformula, "weyl_denominator_exponent_array", _constant_denominator),
     {"gamma", "reason"}),
    ("eta-branch", "eta_branch", _TABLES,
     _rebind(charformula, "weyl_denominator_exponent_array", _turn_minus_branch),
     {"branch", "witness"}),
    ("packet-one-class", "packet_conjugation", _TABLES,
     _rebind(charformula.SumTables, "packet_classes", _split_classes), {"classes", "reason"}),
    ("packet-trivial-group", "packet_conjugation", _TABLES,
     _rebind(charformula.SumTables, "packet_classes", _merge_classes),
     {"classes", "distinct_conjugates"}),
    ("thresholds-scan", "threshold_scan", {"kind": 2, "q_max": 9, "eval_cap": 100_000_000},
     _rebind(uniqueness, "excluded_count", _exclude_everything), {"failing_q"}),
    ("excluded-crosscheck", "excluded_crosscheck", _TATE,
     _rebind(driver, "excluded_count", _miscount),
     {"enumeration", "inclusion_exclusion", "regular_locus"}),
]


def _misread_root(original):
    """The kind-1 root (2, 1) read as (1, 1): a wrong strongly regular locus."""

    def root_values(kind, q, roots, coords):
        if kind == 1:
            roots = [(1, 1) if tuple(root) == (2, 1) else root for root in roots]
        return original(kind, q, roots, coords)

    return root_values


def test_excluded_crosscheck_fails_on_a_wrong_regular_locus(monkeypatch):
    """The locus the identity checks sum over is counted against both
    excluded-locus counts, so a misread root fails every kind-1 record."""
    broken = _misread_root(tori.root_value_coord_array)
    for module in (tori, charformula):
        monkeypatch.setattr(module, "root_value_coord_array", broken)
    tasks = [task for task in build_tasks("uniqueness", resolve_config(_args("uniqueness")))
             if task["id"].startswith("uniqueness/excluded-crosscheck-k1-q")]
    assert len(tasks) == 4
    for task in tasks:
        record, _seconds = driver.run_task(task)
        assert record["outcome"] == "FAIL", task["id"]
        counts = record["witness"]
        assert counts["regular_locus"] != counts["enumeration"] == counts["inclusion_exclusion"]


@pytest.mark.parametrize("kind,word,orders", [
    (1, "", [1, 4]),  # no inversion
    (2, "b", [1, 2]),  # a swap, not the rotation
])
def test_tate_orders_fail_under_a_broken_galois_matrix(monkeypatch, kind, word, orders):
    check, params = driver.REGISTRY["tate_orders"].check, {"kind": kind, "q": 3}
    assert check(dict(params))[0] == "PASS"
    monkeypatch.setitem(tori.ELLIPTIC_WORD, kind, word)
    tori.tate_cohomology.cache_clear()
    try:
        outcome, witness, _info = check(dict(params))
    finally:
        tori.tate_cohomology.cache_clear()
    assert outcome == "FAIL" and witness["orders"] == orders


@pytest.mark.parametrize("label,name,params,apply,keys", FAIL_BRANCHES,
                         ids=[row[0] for row in FAIL_BRANCHES])
def test_structural_check_fails_under_its_break(monkeypatch, label, name, params, apply, keys):
    check = driver.REGISTRY[name].check
    assert check(dict(params))[0] == "PASS"
    apply(monkeypatch)
    outcome, witness, _info = check(dict(params))
    assert outcome == "FAIL", label
    assert set(witness) == keys
