import importlib.util
import json
from pathlib import Path

import pytest

from depthzero import driver
from depthzero.driver import (
    Config,
    ConfigError,
    build_parser,
    build_tasks,
    main,
    read_config_file,
    resolve_config,
)

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


def test_config_rejects_bad_values():
    for flag, value in [("--q", "4"), ("--q", "15"), ("--jobs", "0"), ("--format", "xml"),
                        ("--epsilon-gt", "2")]:
        with pytest.raises(ConfigError):
            resolve_config(_args("identity", flag, value))


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


def test_cache_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("DEPTHZERO_CACHE", str(tmp_path))
    cfg = resolve_config(_args("identity"))
    assert cfg.cache_dir == str(tmp_path)


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
    # no timing data inside the check records themselves
    for rec in report["checks"]:
        assert "wall" not in json.dumps(rec) and "duration" not in json.dumps(rec)


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


def test_budget_exceeded_yields_skipped_and_exit_3(tmp_path):
    code = main([
        "identity", "--q", "7", "--kind", "2", "--out", str(tmp_path),
        "--budget-entries", "100",
    ])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    outcomes = {r["outcome"] for r in report["checks"]}
    assert "SKIPPED" in outcomes and "FAIL" not in outcomes
    skipped = [r for r in report["checks"] if r["outcome"] == "SKIPPED"]
    assert all("reason" in r["witness"] for r in skipped)
    md = (tmp_path / "report.md").read_text()
    assert "SKIPPED" in md


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["identity", "--q", "4", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "configuration error" in out


def test_parallel_jobs_match_serial(tmp_path):
    argv = ["cohomology", "--q", "3", "--kind", "1"]
    assert main(argv + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    assert main(argv + ["--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
    # the worker count lives in run_meta.json only, so the reports are
    # byte-identical regardless of parallelism
    for name in ("report.json", "report.md"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_all_matches_golden_reports(tmp_path):
    assert main(["all", "--jobs", "2", "--out", str(tmp_path)]) == 0
    for name in ("report.json", "report.md", "thresholds.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_summation_flag_accepted(tmp_path):
    code = main([
        "identity", "--q", "3", "--kind", "2", "--summation", "rotation",
        "--out", str(tmp_path),
    ])
    assert code == 0
