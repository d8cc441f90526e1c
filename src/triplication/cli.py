"""Command-line front end.

Subcommands:

* ``build`` (implicit when only flags are given): build a table from a
  template spec (or load a table file), solve it, recover the starter, and
  write the verified starter JSON.
* ``keys``: report the admissible key set of a template base.
* ``verify``: classify a starter file or validate a table file.
* ``batch``: sample random tables, solve each, and keep a resumable
  line-delimited log plus an aggregate summary.  Orders and table files are
  checked before any job runs.  A job whose error is a ``TriplicationError``
  is logged as ``outcome: "error"`` and the batch goes on.

Exit codes: 0 success/valid, 2 unsatisfiable, 3 budget exhausted,
4 invalid input, 5 internal verification failure.  ``batch`` exits with the
worst code of the error records in its log, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import fields

from .errors import BudgetExceeded, InvalidInput, NotATable, TriplicationError
from .msp import compile_instance, random_tt, solution_to_json, solve
from .pairings import _at_least_one, _odd_order, classify, pairing_from_json
from .recovery import recover_starter, starter_from_json, starter_to_json
from .scenarios import _KINDS, Scenario
from .tables import _check_sums, render_table, table_from_json, table_to_json
from .templates import _checked_base, _emit, _keys, template_base_from_spec, template_table

EXIT_OK = 0
EXIT_UNSAT = 2
EXIT_ABORTED = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5

SUBCOMMANDS = ("build", "keys", "verify", "batch")

# Exit code and message prefix of an error, by exception class name (the
# form ``batch`` logs it in); any other error is invalid input.
_EXITS = {
    "BudgetExceeded": (EXIT_ABORTED, "aborted"),
    "InternalVerificationFailure": (EXIT_INTERNAL, "internal verification failure"),
}


def _exit_for(error: str) -> tuple[int, str]:
    return _EXITS.get(error, (EXIT_INVALID, "error"))


def parse_pair_list(text: str, m: int) -> list[list[int]]:
    """Parse the command-line pairing literal ``"x,y;x,y;..."``."""
    m = _odd_order(m)
    return [[int(x) % m for x in chunk.split(",")] for chunk in text.split(";")]


def _spec_from_args(args) -> dict:
    if args.spec:
        with open(args.spec) as fh:
            return json.load(fh)
    if args.mode is None or args.m is None:
        raise InvalidInput("either --spec or --mode/--m must be given")
    spec = {"mode": args.mode, "m": args.m}
    for name in ("T0", "T1", "T2"):
        text = getattr(args, name)
        if text is not None:
            spec[name] = parse_pair_list(text, args.m)
    if args.mu is not None:
        spec["mu"] = args.mu
    return spec


def _counters(stats) -> dict:
    """The solver's exact counters: every ``SolveStats`` field but its time."""
    return {f.name: getattr(stats, f.name) for f in fields(stats) if f.name != "elapsed"}


def _outdir(args) -> str:
    out = getattr(args, "outdir", None) or os.environ.get("TRIPLICATE_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_build(args) -> int:
    scenario_kind = args.scenario
    if args.tt:
        with open(args.tt) as fh:
            tt = table_from_json(json.load(fh))
        provenance_spec = {"table_file": args.tt}
    else:
        spec = _spec_from_args(args)
        base = template_base_from_spec(spec)
        key = args.key if args.key is not None else spec.get("key")
        if key is None:
            raise InvalidInput("a key is required (--key or spec file)")
        tt = template_table(*base, key)
        provenance_spec = {"template": spec, "key": tt.key}
    sc = Scenario(scenario_kind, tt.m)
    inst = compile_instance(tt, sc)
    outcome = solve(inst, mode="first", budget=args.budget, seed=args.seed)
    print(render_table(tt))
    counters = "".join(f"{name}={n}, " for name, n in _counters(outcome.stats).items())
    print(f"solver: {outcome.status} ({counters}elapsed={outcome.stats.elapsed:.3f}s)")
    if outcome.status == "unsat":
        return EXIT_UNSAT
    if outcome.status == "aborted":
        return EXIT_ABORTED
    ct = outcome.tables[0]
    starter = recover_starter(tt, ct, sc)
    doc = starter_to_json(
        starter,
        provenance={
            "tt": table_to_json(tt),
            "scenario": solution_to_json(ct),
            "solution_index": 0,
            **provenance_spec,
        },
    )
    path = args.output or os.path.join(
        _outdir(args), f"starter_order{starter.modulus}_key{tt.key}_{sc.kind}.json"
    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"strong starter of order {starter.modulus}: {list(starter.pairs)}")
    print(f"written to {path}")
    return EXIT_OK


def cmd_keys(args) -> int:
    spec = _spec_from_args(args)
    base = _checked_base(*template_base_from_spec(spec))
    keys = _keys(*base)
    m = base[0].modulus
    print(f"K = {sorted(keys)}  (|K| = {len(keys)})")
    # Clause (iv) alone admits these keys, but their template repeats a sum.
    broken = []
    for t in sorted(keys):
        try:
            _check_sums(_emit(*base, t), m)
        except NotATable:
            broken.append(t)
    if broken:
        print(f"keys whose template breaks clause (iii): {broken}")
    if args.json:
        doc = {
            "m": m,
            "mode": spec["mode"],
            "admissible": sorted(keys),
            "clause_iii_fails": broken,
            "per_key": {str(t): (t in keys) for t in range(1, m)},
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"written to {args.json}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidInput(f"{args.file}: top level is not a JSON object")
    if "rows" in data and "m" in data:
        tt = table_from_json(data)  # raises on violation
        print(f"valid triplication table of order {tt.m}, key {tt.key}")
        return EXIT_OK
    if "pairs" in data:
        p = starter_from_json(data) if "order" in data else pairing_from_json(data)
        outcome = classify(p)
        print(f"order {p.modulus}: {outcome.kind.name}")
        if outcome.witness:
            print(f"first violation: {outcome.witness}")
        return EXIT_OK if outcome.kind.name == "STRONG_STARTER" else EXIT_INVALID
    raise InvalidInput(f"{args.file}: not a starter or table JSON file")


def _batch_job(job: tuple) -> dict:
    m, index, seed, scenario_kind, budget, tt = job
    t0 = time.perf_counter()
    record = {"m": m, "index": index, "seed": seed, "scenario": scenario_kind}
    try:
        if tt is None:
            tt = random_tt(m, seed=seed)
            record["tt"] = table_to_json(tt)
        sc = Scenario(scenario_kind, tt.m)
        outcome = solve(compile_instance(tt, sc), mode="first", budget=budget)
        record.update(
            outcome=outcome.status,
            **_counters(outcome.stats),
            elapsed=round(time.perf_counter() - t0, 6),
        )
        if outcome.status == "solution":
            starter = recover_starter(tt, outcome.tables[0], sc)
            record["order"] = starter.modulus
            record["starter"] = [list(p) for p in starter.pairs]
    except TriplicationError as exc:
        # ``tt`` is still None only when the sampler raised.
        if tt is None and isinstance(exc, BudgetExceeded):
            record["outcome"] = "sample_aborted"
        else:
            record.update(outcome="error", error=type(exc).__name__)
        record.update(message=str(exc), elapsed=round(time.perf_counter() - t0, 6))
    return record


_OUTCOMES = ("solution", "unsat", "aborted", "sample_aborted", "error")


def _is_record(rec) -> bool:
    return (
        isinstance(rec, dict)
        and type(rec.get("m")) is int  # not a bool
        and isinstance(rec.get("index"), (int, str))  # str for a --fixed-tt job
        and rec.get("outcome") in _OUTCOMES
        and (rec["outcome"] != "error" or isinstance(rec.get("error"), str))
    )


def _read_log(log_path: str) -> list[dict]:
    """Every record in the log.

    A last line without its newline was cut short by a crash mid-write: it
    is cut off the file, so that its job runs again.  Any other line that
    is not a record raises :class:`InvalidInput` naming it.
    """
    if not os.path.exists(log_path):
        return []
    with open(log_path, "rb+") as fh:
        data = fh.read()
        *lines, partial = data.split(b"\n")
        if partial:
            fh.truncate(len(data) - len(partial))
    records = []
    for number, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            rec = line
        if not _is_record(rec):
            raise InvalidInput(f"{log_path} line {number} is not a batch record: {rec!r}")
        records.append(rec)
    return records


def cmd_batch(args) -> int:
    orders = [int(x) for x in args.orders.split(",")] if args.orders else []
    if not args.fixed_tt:
        _at_least_one("sample count", args.samples)
    _at_least_one("worker count", args.workers)
    # Orders and table files are checked here, before any job runs, so that
    # bad input ends the run with an error instead of failing inside a job.
    for m in orders:
        _odd_order(m, least=5)
    fixed = []
    for path in args.fixed_tt or []:
        with open(path) as fh:
            tt = table_from_json(json.load(fh))
        fixed.append((f"fixed:{os.path.basename(path)}", tt))
    outdir = _outdir(args)
    log_path = os.path.join(outdir, "batch_log.jsonl")

    records = _read_log(log_path)
    done = {(rec["m"], rec["index"]) for rec in records}
    jobs = [
        (m, index, args.seed * 1_000_003 + m * 1009 + index,
         args.scenario, args.budget, None)
        for m in orders
        for index in range(args.samples)
        if (m, index) not in done
    ]
    jobs += [
        (tt.m, index, args.seed, args.scenario, args.budget, tt)
        for index, tt in fixed
        if (tt.m, index) not in done
    ]

    workers = min(args.workers, len(jobs))  # a pool starts all its workers at once
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    with open(log_path, "a") as log, pool or nullcontext():
        for record in (pool.map if pool else map)(_batch_job, jobs):
            log.write(json.dumps(record) + "\n")
            log.flush()
            records.append(record)

    # Aggregate the full log (including earlier runs being resumed).
    summary: dict[str, dict] = {}
    for rec in records:
        bucket = summary.setdefault(
            str(rec["m"]), dict.fromkeys(["N"] + [f"N_{o}" for o in _OUTCOMES[1:]], 0)
        )
        bucket["N"] += 1
        if rec["outcome"] != "solution":
            bucket["N_" + rec["outcome"]] += 1
    summary_path = os.path.join(outdir, "batch_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    for m, bucket in sorted(summary.items(), key=lambda kv: int(kv[0])):
        counts = " ".join(f"{o}={bucket['N_' + o]}" for o in _OUTCOMES[1:])
        print(f"m={m}: N={bucket['N']} {counts}")
    print(f"log: {log_path}\nsummary: {summary_path}")
    errors = [_exit_for(rec["error"])[0] for rec in records if rec["outcome"] == "error"]
    return max(errors, default=EXIT_OK)


def _add_template_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="template spec JSON file")
    p.add_argument("--mode", choices=["one-starter", "three-starter", "epicycloidal"])
    p.add_argument("--m", type=int, help="base order m")
    p.add_argument("--T0", help='pair list "x,y;x,y;..."')
    p.add_argument("--T1", help="pair list (three-starter mode)")
    p.add_argument("--T2", help="pair list (three-starter mode)")
    p.add_argument("--mu", type=int, help="multiplier (epicycloidal mode)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplicate",
        description="Construct strong starters of order 3m from base order m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a table, solve it, recover a starter")
    _add_template_flags(p)
    p.add_argument("--key", type=int, help="template key t")
    p.add_argument("--tt", help="skip templating: solve this table JSON file")
    p.add_argument("--scenario", choices=_KINDS, default="carry")
    p.add_argument("--budget", type=int, help="solver node budget")
    p.add_argument("--seed", type=int, help="value-order seed")
    p.add_argument("--output", "-o", help="starter JSON output path")
    p.add_argument("--outdir", help="output directory (default $TRIPLICATE_OUTDIR or .)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("keys", help="report admissible keys of a template base")
    _add_template_flags(p)
    p.add_argument("--json", help="write machine-readable report here")
    p.set_defaults(func=cmd_keys)

    p = sub.add_parser("verify", help="classify a starter file / validate a table file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="sample random tables and solve each")
    p.add_argument("--orders", help="comma-separated base orders, e.g. 7,9,11")
    p.add_argument("--samples", type=int, default=100, help="tables per order")
    p.add_argument("--scenario", choices=_KINDS, default="carry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--fixed-tt", action="append", help="also solve this table file")
    p.add_argument("--outdir", help="output directory (default $TRIPLICATE_OUTDIR or .)")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in SUBCOMMANDS and argv[0].startswith("-") \
            and argv[0] not in ("-h", "--help"):
        argv.insert(0, "build")  # bare-flags invocation means build
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # ``build`` and ``batch`` share the solver budget flag and its check.
        _at_least_one("budget", getattr(args, "budget", None))
        return args.func(args)
    except (TriplicationError, OSError, json.JSONDecodeError, ValueError) as exc:
        code, prefix = _exit_for(type(exc).__name__)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
