"""Command-line front end: config resolution, experiment subcommands,
deterministic seeding, and report emission.

Exit codes: 0 when every verdict in the emitted report passes, 1 when a
verdict does not pass (it fails, or is indeterminate for want of decided
trials, kept pairs or eligible traces), 2 for configuration, I/O or
out-of-memory errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache, partial
from itertools import islice
from typing import Any, Callable, Iterator, Mapping, Optional, TextIO

import yaml

from .analysis import (
    fairness_test,
    run_claims_experiment,
    run_equilibrium_experiment,
    run_fairness_experiment,
    scaling_experiment,
)
from .config import ExperimentConfig, parse_config
from .engine import (LOG_FIELDS, SimConfig, config_to_dict, fields_dict,
                     run_trial, trace_log_records)
from .protocol import ConfigError, derive_params

OUT_DIR_ENV = "FAIRGOSSIP_OUT"


# --- plumbing ---------------------------------------------------------------

def _load_doc(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "rb") as fh:        # YAML reads the encoding itself
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark else ""
            raise ConfigError(
                f"config file {path}: not valid YAML{where}") from None
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: expected a key-value map")
    return doc


def _parse_option(text: str) -> tuple[str, Any]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"option {text!r}: expected key=value")
    try:
        return key, yaml.safe_load(raw)
    except yaml.YAMLError:
        raise ConfigError(f"option {text!r}: value is not YAML") from None


def _submap(doc: Mapping, key: str, name: str) -> dict:
    """A copy of the map `doc[key]` for flags to update, empty if unset."""
    value = {} if doc.get(key) is None else doc[key]
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name}: expected a map, got {value!r}")
    return dict(value)


def _inputs(args: argparse.Namespace) -> tuple[dict, dict]:
    """The config file, read once, and the flag overrides; `parse_config`
    checks every value, so list flags are passed on as split strings."""
    if args.parallel < 1:
        raise ConfigError(f"parallel: need at least 1 worker, "
                          f"got {args.parallel}")
    doc = _load_doc(args.config)
    overrides: dict[str, Any] = {
        "n": args.n, "gamma": args.gamma, "chi": args.chi,
        "num_colors": args.num_colors, "colors": args.colors,
        "faulty": args.faulty, "seed": args.seed, "trials": args.trials,
        "sigma_mult": args.sigma_mult, "max_fail_rate": args.max_fail_rate,
        "alpha": args.alpha,
    }
    if getattr(args, "sizes", None) is not None:
        overrides["sizes"] = args.sizes.split(",")
    if args.beta1 is not None or args.beta2 is not None:
        cal = _submap(doc, "calibration", "calibration")
        if args.beta1 is not None:
            cal["beta1"] = args.beta1
        if args.beta2 is not None:
            cal["beta2"] = args.beta2
        overrides["calibration"] = cal
    if args.coalition or args.strategy or args.option:
        coal = _submap(doc, "coalition", "coalition")
        if args.coalition:
            coal["members"] = args.coalition.split(",")
        if args.strategy:
            coal["strategy"] = args.strategy
        if args.option:
            merged = _submap(coal, "options", "coalition.options")
            merged.update(dict(_parse_option(o) for o in args.option))
            coal["options"] = merged
        overrides["coalition"] = coal
    return doc, overrides


def _resolve(args: argparse.Namespace) -> tuple[SimConfig, ExperimentConfig]:
    return parse_config(*_inputs(args))


def _require_serial(args: argparse.Namespace) -> None:
    """Reject --parallel above 1 for a subcommand that has no worker
    split, instead of running it serially without a word."""
    if args.parallel > 1:
        raise ConfigError(f"parallel: {args.subcommand} runs in one "
                          f"process, got {args.parallel} workers")


def _out_path(args: argparse.Namespace) -> Optional[str]:
    if args.out is None:
        return None
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(args.out):
        return os.path.join(out_dir, args.out)
    return args.out


@contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The --out file, closed on exit, or stdout."""
    path = _out_path(args)
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _emit(args: argparse.Namespace, rows: list[dict],
          summary: Optional[dict]) -> None:
    """jsonl: one key-sorted line per row plus the summary; csv: the flat
    row table only. Identical inputs produce byte-identical output."""
    with _output(args) as fh:
        if args.format == "csv":
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        else:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            if summary is not None:
                fh.write(json.dumps(summary, sort_keys=True) + "\n")


# `run` writes its JSONL log this many rows at a time, each row as
# `json.dumps(dict(zip(LOG_FIELDS, row)), sort_keys=True)` writes it. Kinds
# are plain identifiers, so quoting them needs no escapes.
_RUN_BATCH = 1024


def _config_echo(sim: SimConfig, exp: ExperimentConfig) -> dict:
    return {**config_to_dict(sim), "seed": exp.seed,
            "q": derive_params(sim.n, sim.gamma).phase_rounds}


def _verdict_line(name: str, passed: Optional[bool]) -> int:
    word = "pass" if passed else ("indeterminate" if passed is None
                                  else "FAIL")
    print(f"{name} verdict: {word}", file=sys.stderr)
    return 0 if passed else 1


def _chunks(total: int, parts: int) -> list[tuple[int, int]]:
    """Split `total` trials into contiguous (offset, count) chunks."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    out = []
    offset = 0
    for i in range(parts):
        count = base + (1 if i < extra else 0)
        out.append((offset, count))
        offset += count
    return out


def _fold(experiment: Callable, workers: int, sim: SimConfig,
          exp: ExperimentConfig, **options: Any):
    """`experiment(sim, count, seed0, ...)` over at most `workers` trial
    chunks, no more than there are trials or CPUs, in a pool of one
    process per chunk when there are several, merged in seed order with
    the parts' `.merge`."""
    run = partial(experiment, sim, **options)
    chunks = _chunks(exp.trials, min(workers, os.cpu_count() or 1))
    counts = [count for _, count in chunks]
    seeds = [exp.seed + offset for offset, _ in chunks]
    if len(chunks) > 1:
        # a forked pool starts all its processes up front
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            report, *parts = pool.map(run, counts, seeds)
    else:
        report, *parts = map(run, counts, seeds)
    for part in parts:
        report.merge(part)
    return report


# --- subcommands ------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    _require_serial(args)
    sim, exp = _resolve(args)
    trace = run_trial(sim)
    rows = trace_log_records(trace)
    with _output(args) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(LOG_FIELDS)
            writer.writerows(rows)
        else:
            while batch := "".join([
                    f'{{"kind": "{kind}", "payload_bits": {bits}, '
                    f'"receiver": {"null" if receiver is None else receiver}, '
                    f'"round": {rnd}, "sender": {sender}}}\n'
                    for rnd, kind, sender, receiver, bits
                    in islice(rows, _RUN_BATCH)]):
                fh.write(batch)
            summary = {"outcome": trace.outcome, "winner": trace.winner,
                       "rounds": trace.stats.rounds,
                       "max_message_bits": max(
                           (m[5] for m in trace.messages), default=0),
                       "flags": fields_dict(trace.flags)}
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    sim, exp = _resolve(args)
    report = _fold(run_fairness_experiment, args.parallel, sim, exp)
    verdict = fairness_test(report, exp.sigma_mult, exp.max_fail_rate)
    summary = {"record": "summary", "config": _config_echo(sim, exp),
               "trials": report.trials, "fail_count": report.fail_count,
               "fail_rate": verdict.fail_rate,
               "fail_rate_ok": verdict.fail_rate_ok,
               "passed": verdict.passed}
    rows = [{"record": "color", **r, "ok": verdict.per_color.get(r["color"])}
            for r in report.per_color_rows()]
    _emit(args, rows, summary)
    return _verdict_line("fairness", verdict.passed)


def _cmd_attack(args: argparse.Namespace) -> int:
    _require_serial(args)
    sim, exp = _resolve(args)
    if sim.coalition is None:
        raise ConfigError("coalition: required for attack experiments")
    report = run_equilibrium_experiment(sim, exp.trials, exp.seed,
                                        sigma_mult=exp.sigma_mult)
    doc = report.to_dict()
    rows = [{"record": "member", **r} for r in doc.pop("per_member")]
    summary = {"record": "summary", "config": _config_echo(sim, exp), **doc}
    _emit(args, rows, summary)
    return _verdict_line("attack no-gain", report.verdict)


def _cmd_claims(args: argparse.Namespace) -> int:
    sim, exp = _resolve(args)
    report = _fold(run_claims_experiment, args.parallel, sim, exp,
                   sigma_mult=exp.sigma_mult).report()
    doc = report.to_dict()
    rows = [{"record": "color", **r} for r in doc.pop("claim3")]
    summary = {"record": "summary", "config": _config_echo(sim, exp), **doc}
    _emit(args, rows, summary)
    return _verdict_line("claims", report.passed)


def _cmd_scaling(args: argparse.Namespace) -> int:
    _require_serial(args)
    doc, overrides = _inputs(args)
    if any(overrides.get(k) or doc.get(k) for k in ("coalition", "faulty")):
        raise ConfigError("scaling runs fault-free, coalition-free "
                          "configs; got a coalition or faulty agents")
    # scaling reads sizes, not n: n=1, where no gamma is too large, stands
    # in unless one is given, and `scaling_experiment` checks every size
    sim, exp = parse_config({"n": 1, "trials": 5, **doc}, overrides)
    table = scaling_experiment(exp.sizes, sim.gamma, exp.trials, exp.seed,
                               calibration=sim.calibration)
    passed = all(row.rounds == 4 * row.q for row in table)
    rows = [{"record": "size", **row._asdict()} for row in table]
    summary = {"record": "summary", "gamma": sim.gamma,
               "trials": exp.trials, "seed": exp.seed, "passed": passed}
    _emit(args, rows, summary)
    return _verdict_line("scaling", passed)


# --- parser -----------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: `parse_args` leaves it
    as it was, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="fairgossip",
        description="Rational fair consensus simulator and experiment "
                    "harness.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config document")
    common.add_argument("--n", type=int, help="number of agents")
    common.add_argument("--gamma", type=float, help="round multiplier")
    common.add_argument("--chi", type=float, help="abort penalty")
    common.add_argument("--num-colors", type=int, dest="num_colors")
    common.add_argument("--colors",
                        help="explicit list or shorthand like 32x1,32x2")
    common.add_argument("--faulty",
                        help="id list, random[:K], or color:C:K")
    common.add_argument("--coalition", help="comma-separated member ids")
    common.add_argument("--strategy", help="coalition strategy name")
    common.add_argument("--option", action="append",
                        help="strategy option key=value (repeatable)")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--trials", type=int, help="trial count")
    common.add_argument("--sigma-mult", type=float, dest="sigma_mult")
    common.add_argument("--max-fail-rate", type=float, dest="max_fail_rate")
    common.add_argument("--alpha", type=float,
                        help="fault fraction for --faulty random")
    calibration = ("calibration override: the tally band, in units of ln n, "
                   "behind the d2_votes_theta_logn flag; fairness reads no "
                   "flags and ignores it")
    common.add_argument("--beta1", type=float, help=calibration)
    common.add_argument("--beta2", type=float, help=calibration)
    common.add_argument("--out", help=f"output path (relative paths land "
                                      f"in ${OUT_DIR_ENV} when set)")
    common.add_argument("--format", choices=("jsonl", "csv"),
                        default="jsonl")
    common.add_argument("--parallel", type=int, default=1,
                        help="worker bound for trial loops, capped at "
                             "the trial and CPU counts")

    p_run = sub.add_parser("run", parents=[common],
                           help="one trial, exported as a line log")
    p_run.set_defaults(func=_cmd_run)
    p_fair = sub.add_parser("fairness", parents=[common],
                            help="win-frequency experiment + verdict")
    p_fair.set_defaults(func=_cmd_fairness)
    p_attack = sub.add_parser("attack", parents=[common],
                              help="coupled deviation experiment + verdict")
    p_attack.set_defaults(func=_cmd_attack)
    p_claims = sub.add_parser("claims", parents=[common],
                              help="per-trace claims audit + verdict")
    p_claims.set_defaults(func=_cmd_claims)
    p_scaling = sub.add_parser("scaling", parents=[common],
                               help="round/bit growth table")
    p_scaling.add_argument("--sizes", help="comma-separated n values")
    p_scaling.set_defaults(func=_cmd_scaling)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
