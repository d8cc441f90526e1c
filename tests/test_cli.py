import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplication import Scenario, SolveStats, compile_instance, solve, table_to_json, validate
from triplication.cli import main

import golden


def run(argv):
    return main([str(a) for a in argv])


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# -------------------------------------------------------------------- build


def test_build_one_starter_carry(tmp_path, capsys):
    out = tmp_path / "starter.json"
    code = run(
        ["build", "--mode", "one-starter", "--m", 7, "--T0", "2,3;4,6;1,5",
         "--key", 1, "--scenario", "carry", "--output", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 21 and "ordered" not in doc
    assert doc["provenance"]["tt"]["key"] == 1
    printed = capsys.readouterr().out
    assert "(1, 1)" in printed and "strong starter of order 21" in printed
    # closed loop: the written file re-verifies, also with the "ordered" flag
    # that older starter files carry
    assert run(["verify", out]) == 0
    assert run(["verify", write_json(tmp_path / "old.json", {**doc, "ordered": True})]) == 0


def test_bare_flag_invocation_implies_build(tmp_path):
    out = tmp_path / "s.json"
    code = run(
        ["--mode", "one-starter", "--m", 15,
         "--T0", "3,4;12,14;7,10;2,6;8,13;5,11;9,1",
         "--key", 4, "--scenario", "mod", "--output", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 45
    assert run(["verify", out]) == 0


def test_build_epicycloidal(tmp_path):
    out = tmp_path / "s.json"
    code = run(
        ["build", "--mode", "epicycloidal", "--m", 7, "--T0", "2,3;4,6;5,1",
         "--mu", 2, "--key", 3, "--scenario", "mod", "--output", out]
    )
    assert code == 0
    assert json.loads(out.read_text())["order"] == 21


def test_build_three_starter(tmp_path):
    out = tmp_path / "s.json"
    code = run(
        ["build", "--mode", "three-starter", "--m", 13,
         "--T0", "3,4;5,7;9,12;10,1;6,11;2,8",
         "--T1", "3,4;6,8;9,12;10,1;2,7;5,11",
         "--T2", "9,10;5,7;1,4;12,3;6,11;2,8",
         "--key", 1, "--scenario", "carry", "--output", out]
    )
    assert code == 0
    assert json.loads(out.read_text())["order"] == 39
    assert run(["verify", out]) == 0


def test_build_from_spec_file(tmp_path):
    spec = write_json(
        tmp_path / "spec.json",
        {"mode": "one-starter", "m": 9, "T0": golden.STARTER_9, "key": 1},
    )
    out = tmp_path / "s.json"
    code = run(["build", "--spec", spec, "--scenario", "mod", "--output", out])
    assert code == 0
    assert json.loads(out.read_text())["order"] == 27


def test_build_three_starter_rejects_pseudostarter_base(tmp_path, capsys):
    # (T1, T2) covers Z_7^* twice, but T1 repeats 2 and T2 repeats 5
    code = run(
        ["build", "--mode", "three-starter", "--m", 7, "--T0", "2,3;4,6;1,5",
         "--T1", "1,2;2,4;3,6", "--T2", "5,6;3,5;1,4", "--key", 3,
         "--outdir", tmp_path / "out"]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error: T1 is not a starter")
    assert not (tmp_path / "out").exists()


def test_build_rejects_inadmissible_key(tmp_path, capsys):
    code = run(
        ["build", "--mode", "one-starter", "--m", 7, "--T0", "2,3;4,6;5,1",
         "--key", 3, "--scenario", "carry", "--outdir", tmp_path]
    )
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: key 3 is not admissible: it duplicates the pair (4, 6)")
    assert err.endswith("; K = [1, 2, 4]\n") and err.count("\n") == 1


def test_build_unsolvable_table_exits_2(tmp_path, capsys):
    tt = validate(golden.UNSOLVABLE_11, 11)
    path = write_json(tmp_path / "tt.json", table_to_json(tt))
    assert run(["build", "--tt", path, "--scenario", "carry"]) == 2
    printed = capsys.readouterr().out
    assert "solver: unsat (nodes=28842, backtracks=28842, max_depth=25," in printed


def test_build_budget_abort_exits_3(tmp_path):
    tt = validate(golden.UNSOLVABLE_13, 13)
    path = write_json(tmp_path / "tt.json", table_to_json(tt))
    assert run(["build", "--tt", path, "--scenario", "mod", "--budget", 10]) == 3


def test_cli_reports_every_solver_counter(tmp_path, capsys):
    # build's solver: line and a batch record carry every SolveStats field but
    # its time, so a new counter needs no CLI change.
    tt = validate(golden.TABLE_7_KEY1, 7)
    stats = solve(compile_instance(tt, Scenario("carry", 7))).stats
    counters = [f.name for f in fields(SolveStats) if f.name != "elapsed"]
    path = write_json(tmp_path / "tt.json", table_to_json(tt))
    assert run(["build", "--tt", path, "--outdir", tmp_path]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("solver:"))
    assert run(["batch", "--samples", 1, "--fixed-tt", path, "--outdir", tmp_path]) == 0
    record = json.loads((tmp_path / "batch_log.jsonl").read_text())
    for name in counters:
        assert f"{name}={getattr(stats, name)}," in line
        assert record[name] == getattr(stats, name)


def test_build_invalid_file_exits_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["build", "--tt", bad, "--scenario", "mod"]) == 4


# --------------------------------------------------------------------- keys


def test_keys_report(tmp_path, capsys):
    report = tmp_path / "keys.json"
    code = run(
        ["keys", "--mode", "one-starter", "--m", 9,
         "--T0", "5,6;2,4;7,1;8,3", "--json", report]
    )
    assert code == 0
    assert "[1, 3, 4, 5, 7]" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["admissible"] == [1, 3, 4, 5, 7]
    assert doc["per_key"]["2"] is False and doc["per_key"]["5"] is True


def test_keys_empty_set(capsys):
    code = run(["keys", "--mode", "one-starter", "--m", 7, "--T0", "1,6;2,5;3,4"])
    assert code == 0
    assert "(|K| = 0)" in capsys.readouterr().out


def test_keys_names_keys_whose_template_breaks_clause_iii(tmp_path, capsys):
    report = tmp_path / "keys.json"
    code = run(["keys", "--mode", "one-starter", "--m", 11,
                "--T0", "1,4;2,7;3,5;6,10;8,9", "--json", report])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "K = [1, 2, 3, 4, 7, 10]  (|K| = 6)",
        "keys whose template breaks clause (iii): [1, 2, 3, 7]",
    ]
    doc = json.loads(report.read_text())
    assert doc["admissible"] == [1, 2, 3, 4, 7, 10]
    assert doc["clause_iii_fails"] == [1, 2, 3, 7]
    # a strong base prints the key set alone
    assert run(["keys", "--mode", "one-starter", "--m", 7, "--T0", "2,3;4,6;5,1"]) == 0
    assert capsys.readouterr().out == "K = [1, 2, 4]  (|K| = 3)\n"


# ------------------------------------------------------------------- verify


def test_verify_table_file(tmp_path, capsys):
    tt = validate(golden.UNSOLVABLE_13, 13)
    path = write_json(tmp_path / "tt.json", table_to_json(tt))
    assert run(["verify", path]) == 0
    assert "valid triplication table of order 13" in capsys.readouterr().out
    doc = table_to_json(tt)
    doc["rows"] = [[p for row in doc["rows"] for p in row]]  # all pairs in one row
    assert run(["verify", write_json(tmp_path / "flat.json", doc)]) == 4
    assert capsys.readouterr().err.startswith("error: rows must be")


def test_verify_strong_starter_samples(tmp_path):
    for key, pairs in golden.ORDER_27_SAMPLES.items():
        path = write_json(
            tmp_path / f"s{key}.json", {"order": 27, "pairs": [list(p) for p in pairs]}
        )
        assert run(["verify", path]) == 0


def test_verify_flags_broken_starter(tmp_path, capsys):
    pairs = [list(p) for p in golden.WILD_STARTER_21]
    pairs[3][0] = 0
    path = write_json(tmp_path / "zeroed.json", {"order": 21, "pairs": pairs})
    assert run(["verify", path]) == 4
    out = capsys.readouterr().out
    assert "NOT_ANY" in out or "PSEUDOSTARTER" in out


def test_verify_rejects_garbage(tmp_path, capsys):
    path = write_json(tmp_path / "nope.json", {"hello": 1})
    assert run(["verify", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a starter or table" in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("verify", {"m": 7, "rows": [[5]]}),
        ("verify", {"order": 21, "pairs": [1, 2]}),
        ("build --spec", {"mode": "one-starter", "m": 7, "T0": [1, 2, 3], "key": 1}),
        ("batch --samples 1 --fixed-tt", {"m": 7, "rows": [[5]]}),
    ],
)
def test_malformed_pair_list_exits_4(tmp_path, capsys, monkeypatch, command, doc):
    monkeypatch.chdir(tmp_path)  # build and batch write here
    code = run(command.split() + [write_json(tmp_path / "in.json", doc)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed pair list") and "Traceback" not in err


T0_7 = [[2, 3], [4, 6], [1, 5]]
TABLE_7_ENTRY_2_9 = table_to_json(validate(golden.TABLE_7_KEY1, 7))
TABLE_7_ENTRY_2_9["rows"][1][0][0] = 2.9  # the pair (2, 3) written (2.9, 3)


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["verify"], 5),
        (["build", "--spec"], {"mode": "one-starter", "m": 7, "T0": T0_7, "key": [1]}),
        (["build", "--spec"],
         {"mode": "epicycloidal", "m": 7, "T0": T0_7, "mu": [2], "key": 3}),
        (["build", "--mode", "one-starter", "--m", 0, "--T0", "2,3;4,6;1,5", "--key", 1],
         None),
        (["keys", "--mode", "one-starter", "--m", 0, "--T0", "2,3;4,6;1,5"], None),
        (["keys"], None),
        (["build", "--spec"], {"mode": "one-starter", "m": 7, "T0": T0_7}),
        (["batch", "--orders", 7, "--samples", 0], None),
        (["batch", "--orders", 7, "--samples", 1, "--budget", 0], None),
        (["batch", "--orders", 7, "--samples", 1, "--workers", 0], None),
        (["batch", "--orders", 7, "--samples", 1, "--workers", -3], None),
        (["build", "--mode", "one-starter", "--m", 7, "--T0", "2,3;4,6;1,5", "--key", 1,
          "--budget", 0], None),
        (["build", "--spec"], {"mode": "one-starter", "m": 7.9, "T0": T0_7, "key": 1}),
        (["build", "--spec"], {"mode": "one-starter", "m": 7, "T0": T0_7, "key": 1.5}),
        (["build", "--spec"], {"mode": "one-starter", "m": 7, "T0": T0_7, "key": True}),
        (["verify"], TABLE_7_ENTRY_2_9),
    ],
    ids=["verify-non-object", "build-list-key", "build-list-mu", "build-m0", "keys-m0",
         "keys-no-spec", "build-no-key", "batch-samples0", "batch-budget0", "batch-workers0",
         "batch-workers-neg", "build-budget0",
         "build-float-m", "build-float-key", "build-bool-key", "verify-float-entry"],
)
def test_ill_typed_input_exits_4(tmp_path, capsys, monkeypatch, argv, doc):
    monkeypatch.chdir(tmp_path)  # build writes here
    if doc is not None:
        argv = argv + [write_json(tmp_path / "in.json", doc)]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# -------------------------------------------------------------------- batch


def test_batch_smoke_and_resume(tmp_path, capsys):
    args = ["batch", "--orders", "5,7", "--samples", 3, "--scenario", "carry",
            "--seed", 11, "--outdir", tmp_path]
    assert run(args) == 0
    log = (tmp_path / "batch_log.jsonl").read_text().splitlines()
    assert len(log) == 6
    summary = json.loads((tmp_path / "batch_summary.json").read_text())
    assert summary["5"]["N"] == 3 and summary["7"]["N"] == 3
    records = [json.loads(line) for line in log]
    assert all(r["outcome"] == "solution" for r in records)
    assert all("starter" in r for r in records)

    # resuming does not duplicate finished work
    assert run(args) == 0
    assert len((tmp_path / "batch_log.jsonl").read_text().splitlines()) == 6


def test_batch_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        run(["batch", "--orders", "7", "--samples", 4, "--seed", 3,
             "--scenario", "mod", "--outdir", d])
    ra = [json.loads(l) for l in (a / "batch_log.jsonl").read_text().splitlines()]
    rb = [json.loads(l) for l in (b / "batch_log.jsonl").read_text().splitlines()]
    for x, y in zip(ra, rb):
        x.pop("elapsed"), y.pop("elapsed")
        assert x == y


def test_batch_fixed_table_records_unsat(tmp_path):
    tt = validate(golden.UNSOLVABLE_11, 11)
    path = write_json(tmp_path / "tt.json", table_to_json(tt))
    code = run(["batch", "--samples", 1, "--fixed-tt", path, "--outdir", tmp_path])
    assert code == 0
    records = [
        json.loads(l) for l in (tmp_path / "batch_log.jsonl").read_text().splitlines()
    ]
    assert records[0]["outcome"] == "unsat"
    assert records[0]["index"] == "fixed:tt.json"
    assert records[0]["max_depth"] == 25


def test_batch_resume_skips_fixed_table_job(tmp_path):
    tt = validate(golden.UNSOLVABLE_11, 11)
    path = write_json(tmp_path / "tt.json", table_to_json(tt))
    args = ["batch", "--samples", 1, "--fixed-tt", path, "--outdir", tmp_path]
    assert run(args) == 0
    log = tmp_path / "batch_log.jsonl"
    before = log.read_text()
    assert run(args) == 0
    assert log.read_text() == before


def test_batch_fixed_table_without_order_exits_4(tmp_path, capsys):
    doc = table_to_json(validate(golden.UNSOLVABLE_11, 11))
    del doc["m"]
    path = write_json(tmp_path / "tt.json", doc)
    code = run(["batch", "--samples", 1, "--fixed-tt", path, "--outdir", tmp_path])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_batch_invalid_fixed_table_with_workers_exits_4(tmp_path, capsys):
    doc = table_to_json(validate(golden.UNSOLVABLE_11, 11))
    doc["rows"][1][0] = doc["rows"][1][1]  # a duplicated pair
    path = write_json(tmp_path / "tt.json", doc)
    code = run(["batch", "--orders", 5, "--samples", 2, "--workers", 2,
                "--fixed-tt", path, "--outdir", tmp_path])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: clause (i)") and "Traceback" not in err
    # rejected before any job ran
    assert not (tmp_path / "batch_log.jsonl").exists()


def test_batch_records_sampler_budget_abort(tmp_path, capsys, monkeypatch):
    import triplication.cli as cli
    from triplication import BudgetExceeded

    real_random_tt = cli.random_tt
    calls = []

    def random_tt(m, seed=None):
        calls.append(seed)
        if len(calls) == 2:  # jobs run in order with one worker
            raise BudgetExceeded("synthetic sampler budget")
        return real_random_tt(m, seed=seed)

    monkeypatch.setattr(cli, "random_tt", random_tt)
    code = run(["batch", "--orders", "7", "--samples", 3, "--outdir", tmp_path])
    assert code == 0
    records = [
        json.loads(l) for l in (tmp_path / "batch_log.jsonl").read_text().splitlines()
    ]
    assert [r["outcome"] for r in records] == ["solution", "sample_aborted", "solution"]
    assert records[1]["message"] == "synthetic sampler budget"
    summary = json.loads((tmp_path / "batch_summary.json").read_text())
    assert summary["7"]["N"] == 3 and summary["7"]["N_sample_aborted"] == 1
    assert "sample_aborted=1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "error, code", [("InternalVerificationFailure", 5), ("NotCongruous", 4)]
)
def test_batch_logs_job_error_and_goes_on(tmp_path, capsys, monkeypatch, error, code):
    import triplication
    import triplication.cli as cli

    real_recover = cli.recover_starter
    calls = []

    def recover_starter(*args):
        calls.append(args)
        if len(calls) == 2:  # jobs run in order with one worker
            raise getattr(triplication, error)("synthetic")
        return real_recover(*args)

    monkeypatch.setattr(cli, "recover_starter", recover_starter)
    args = ["batch", "--orders", "7", "--samples", 3, "--outdir", tmp_path]
    assert run(args) == code
    log = tmp_path / "batch_log.jsonl"
    records = [json.loads(l) for l in log.read_text().splitlines()]
    assert [r["outcome"] for r in records] == ["solution", "error", "solution"]
    assert records[1]["error"] == error and records[1]["message"] == "synthetic"
    assert "tt" in records[1] and "starter" not in records[1]
    summary = json.loads((tmp_path / "batch_summary.json").read_text())
    assert summary["7"]["N"] == 3 and summary["7"]["N_error"] == 1
    out, err = capsys.readouterr()
    assert "error=1" in out and "Traceback" not in err

    # an error record counts as done on resume, and still sets the exit code
    assert run(args) == code
    assert log.read_text().count("\n") == 3


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched module only when forked",
)
def test_batch_workers_pool_logs_job_error(tmp_path, monkeypatch):
    import triplication.cli as cli
    from triplication import InternalVerificationFailure

    real_recover = cli.recover_starter

    def recover_starter(tt, ct, sc):
        if tt.m == 7:
            raise InternalVerificationFailure("synthetic")
        return real_recover(tt, ct, sc)

    monkeypatch.setattr(cli, "recover_starter", recover_starter)
    code = run(["batch", "--orders", "5,7", "--samples", 2, "--workers", 2,
                "--outdir", tmp_path])
    assert code == 5
    records = [
        json.loads(l) for l in (tmp_path / "batch_log.jsonl").read_text().splitlines()
    ]
    assert [(r["m"], r["outcome"]) for r in records] == [
        (5, "solution"), (5, "solution"), (7, "error"), (7, "error")
    ]


def test_batch_rejects_bad_order_before_any_job(tmp_path, capsys):
    code = run(["batch", "--orders", "7,4", "--samples", 2, "--outdir", tmp_path])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: order must be odd and >= 5, got 4")
    assert not (tmp_path / "batch_log.jsonl").exists()


def test_batch_resume_redoes_truncated_last_record(tmp_path):
    args = ["batch", "--orders", "7", "--samples", 3, "--seed", 5,
            "--outdir", tmp_path]
    assert run(args) == 0
    log = tmp_path / "batch_log.jsonl"
    full = log.read_bytes()
    log.write_bytes(full[:-10])  # a crash in the middle of the last write
    assert run(args) == 0
    redone = [json.loads(l) for l in log.read_text().splitlines()]
    expected = [json.loads(l) for l in full.decode().splitlines()]
    for r in redone + expected:
        r.pop("elapsed")
    assert redone == expected


def test_batch_resume_accepts_records_without_max_depth(tmp_path):
    args = ["batch", "--orders", "7", "--samples", 2, "--outdir", tmp_path]
    assert run(args) == 0
    log = tmp_path / "batch_log.jsonl"
    older = [json.loads(l) for l in log.read_text().splitlines()]
    for r in older:
        del r["max_depth"]  # as written before the counter existed
    log.write_text("".join(json.dumps(r) + "\n" for r in older))
    assert run(args + ["--samples", 3]) == 0
    records = [json.loads(l) for l in log.read_text().splitlines()]
    # A solution at m = 7 assigns all 20 variables at once.
    assert records[:2] == older and records[2]["max_depth"] == 20


def test_batch_resume_rejects_malformed_inner_line(tmp_path):
    args = ["batch", "--orders", "7", "--samples", 3, "--outdir", tmp_path]
    assert run(args) == 0
    log = tmp_path / "batch_log.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:-10] + "\n"
    log.write_text("".join(lines))
    assert run(args) == 4
    assert log.read_text() == "".join(lines)


@pytest.mark.parametrize(
    "line",
    ["{}", "5", '{"m": 7, "index": 0}', '{"m": true, "index": 1, "outcome": "unsat"}',
     "garbage", ""],
)
def test_batch_resume_rejects_non_record_line(tmp_path, capsys, line):
    args = ["batch", "--orders", "7", "--samples", 3, "--outdir", tmp_path]
    assert run(args) == 0
    capsys.readouterr()
    log = tmp_path / "batch_log.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    lines[1] = line + "\n"
    log.write_text("".join(lines))
    assert run(args + ["--samples", 4]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2 is not a batch record" in err
    assert log.read_text() == "".join(lines)


def test_batch_workers_pool(tmp_path):
    code = run(["batch", "--orders", "5", "--samples", 4, "--workers", 2,
                "--outdir", tmp_path])
    assert code == 0
    assert len((tmp_path / "batch_log.jsonl").read_text().splitlines()) == 4


def test_batch_pool_is_capped_at_the_job_count(tmp_path, monkeypatch):
    import triplication.cli as cli

    asked = []

    class InProcessPool(contextlib.nullcontext):
        def __init__(self, max_workers):
            super().__init__()
            asked.append(max_workers)

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    args = ["batch", "--orders", "5", "--samples", 2, "--workers", 8, "--outdir", tmp_path]
    assert run(args) == 0
    assert asked == [2]
    # a resume with one record missing runs its one job without a pool
    assert run(args + ["--samples", 3]) == 0
    assert asked == [2]
    assert len((tmp_path / "batch_log.jsonl").read_text().splitlines()) == 3


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TRIPLICATE_OUTDIR", str(tmp_path / "env_out"))
    code = run(
        ["build", "--mode", "one-starter", "--m", 7, "--T0", "2,3;4,6;1,5",
         "--key", 1, "--scenario", "carry"]
    )
    assert code == 0
    written = list((tmp_path / "env_out").glob("starter_*.json"))
    assert len(written) == 1


def test_internal_verification_failure_exits_5(tmp_path, monkeypatch):
    import triplication.cli as cli
    from triplication import InternalVerificationFailure

    def boom(*args, **kwargs):
        raise InternalVerificationFailure("synthetic")

    monkeypatch.setattr(cli, "recover_starter", boom)
    code = run(
        ["build", "--mode", "one-starter", "--m", 7, "--T0", "2,3;4,6;1,5",
         "--key", 1, "--scenario", "carry", "--outdir", tmp_path]
    )
    assert code == 5


# --------------------------------------------------------------------- fuzz

_INTS = st.integers(-3, 60)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_PAIRS = st.just(T0_7) | st.lists(st.lists(_INTS, max_size=3), max_size=8) | _JSON
_SPEC = st.fixed_dictionaries(
    {"mode": st.sampled_from(["one-starter", "three-starter", "epicycloidal"]) | _JSON,
     "m": st.just(7) | _INTS | _JSON,
     "T0": _PAIRS},
    optional={"T1": _PAIRS, "T2": _PAIRS, "mu": _INTS | _JSON, "key": _INTS | _JSON},
)
_RECORD = st.fixed_dictionaries(
    {"m": st.just(5) | _INTS | _JSON,
     "index": _INTS | st.text(max_size=3) | _JSON,
     "outcome": st.sampled_from(["solution", "unsat", "aborted", "sample_aborted",
                                 "error"]) | _JSON},
    optional={"error": st.text(max_size=6) | _JSON, "max_depth": _JSON},
)
_FUZZ = {
    "verify": _JSON
    | st.fixed_dictionaries(
        {"m": st.just(7) | _INTS | _JSON, "rows": st.lists(_PAIRS, max_size=4) | _JSON},
        optional={"key": _INTS | _JSON, "signs": _PAIRS},
    )
    | st.fixed_dictionaries({"order": _INTS | _JSON, "pairs": _PAIRS})
    | st.fixed_dictionaries({"modulus": _INTS | _JSON, "pairs": _PAIRS}),
    "build --spec": _SPEC,
    "keys --spec": _SPEC,
    "batch": st.tuples(st.lists(_RECORD | _JSON, max_size=4), st.booleans()),
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(sorted(_FUZZ)), data=st.data())
def test_fuzzed_json_input_exits_with_a_documented_code(command, data):
    doc = data.draw(_FUZZ[command])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if command == "batch":
            # a resumed log: generated lines, the last one perhaps cut short
            lines, cut = doc
            text = "".join(json.dumps(line) + "\n" for line in lines)
            with open(os.path.join(d, "batch_log.jsonl"), "w") as fh:
                fh.write(text[:-1] if cut else text)
            argv = ["batch", "--orders", 5, "--samples", 2, "--outdir", d]
        else:
            path = os.path.join(d, "in.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = command.split() + [path]
            if command == "build --spec":
                argv += ["--outdir", d]
        code = run(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# ------------------------------------------------------------- entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "triplication.cli", "keys", "--mode", "one-starter",
         "--m", "7", "--T0", "2,3;4,6;5,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "[1, 2, 4]" in proc.stdout
