"""Command-line front end: config resolution, experiment subcommands,
deterministic seeding, and report emission.

Exit codes: 0 when every verdict in the emitted report passes, 1 when a
verdict fails, 2 for configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO

import yaml

from .analysis import (
    fairness_test,
    run_claims_experiment,
    run_equilibrium_experiment,
    run_fairness_experiment,
    scaling_experiment,
)
from .config import ExperimentConfig, parse_config
from .engine import LOG_FIELDS, SimConfig, run_trial, trace_log_records
from .protocol import ConfigError, derive_params

OUT_DIR_ENV = "FAIRGOSSIP_OUT"


# --- plumbing ---------------------------------------------------------------

def _load_doc(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
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


def _resolve(args: argparse.Namespace) -> tuple[SimConfig, ExperimentConfig]:
    """Merge the config file with the flags; `parse_config` coerces and
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
    if getattr(args, "sizes", None):
        overrides["sizes"] = args.sizes.split(",")
    if args.beta1 is not None or args.beta2 is not None:
        cal = dict(doc.get("calibration") or {})
        if args.beta1 is not None:
            cal["beta1"] = args.beta1
        if args.beta2 is not None:
            cal["beta2"] = args.beta2
        overrides["calibration"] = cal
    if args.coalition or args.strategy or args.option:
        coal = dict(doc.get("coalition") or {})
        if args.coalition:
            coal["members"] = args.coalition.split(",")
        if args.strategy:
            coal["strategy"] = args.strategy
        if args.option:
            merged = dict(coal.get("options") or {})
            merged.update(dict(_parse_option(o) for o in args.option))
            coal["options"] = merged
        overrides["coalition"] = coal
    return parse_config(doc, overrides)


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


# A `run` row as `json.dumps(dict(zip(LOG_FIELDS, row)), sort_keys=True)`
# writes it: keys sorted, receiver None as null. Kinds are plain
# identifiers, so quoting them needs no escapes.
_RUN_JSONL_ROW = ('{"kind": "%s", "payload_bits": %d, "receiver": %s, '
                  '"round": %d, "sender": %d}\n')


def _log_rows(records: Iterable, summary: dict) -> Iterator[tuple]:
    """The rows of a `trace_log_records` stream; its summary dict is
    copied into `summary` once the rows are drained."""
    for rec in records:
        if type(rec) is dict:
            summary.update(rec)
        else:
            yield rec


def _config_echo(sim: SimConfig, exp: ExperimentConfig) -> dict:
    coalition = None
    if sim.coalition is not None:
        coalition = {"members": list(sim.coalition.members),
                     "strategy": sim.coalition.strategy,
                     "options": dict(sim.coalition.options)}
    return {
        "n": sim.n, "gamma": sim.gamma, "chi": sim.chi,
        "num_colors": sim.num_colors, "faulty": sorted(sim.faulty),
        "coalition": coalition, "seed": exp.seed,
        "q": derive_params(sim.n, sim.gamma).phase_rounds,
    }


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
    """`experiment(sim, count, seed0, ...)` over the trial chunks, in a
    pool of `workers` processes when there are several, merged in seed
    order with the parts' `.merge`."""
    run = partial(experiment, sim, calibration=exp.calibration, **options)
    chunks = _chunks(exp.trials, workers)
    counts = [count for _, count in chunks]
    seeds = [exp.seed + offset for offset, _ in chunks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    trace = run_trial(sim, calibration=exp.calibration)
    summary: dict = {}
    rows = _log_rows(trace_log_records(trace), summary)
    with _output(args) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(LOG_FIELDS)
            writer.writerows(rows)
        else:
            fh.writelines(
                _RUN_JSONL_ROW % (kind, bits,
                                  "null" if receiver is None else receiver,
                                  rnd, sender)
                for rnd, kind, sender, receiver, bits in rows)
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
                                        sigma_mult=exp.sigma_mult,
                                        calibration=exp.calibration)
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
    doc = _load_doc(args.config)
    if args.n is None and "n" not in doc:
        args.n = 16             # scaling reads sizes, not n
    if args.trials is None and "trials" not in doc:
        args.trials = 5
    sim, exp = _resolve(args)
    if sim.coalition is not None or sim.faulty:
        raise ConfigError("scaling runs fault-free, coalition-free "
                          "configs; got a coalition or faulty agents")
    table = scaling_experiment(exp.sizes, sim.gamma, exp.trials, exp.seed,
                               calibration=exp.calibration)
    passed = all(row.rounds == 4 * row.q for row in table)
    rows = [{"record": "size", **row._asdict()} for row in table]
    summary = {"record": "summary", "gamma": sim.gamma,
               "trials": exp.trials, "seed": exp.seed, "passed": passed}
    _emit(args, rows, summary)
    return _verdict_line("scaling", passed)


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    common.add_argument("--beta1", type=float, help="calibration override")
    common.add_argument("--beta2", type=float, help="calibration override")
    common.add_argument("--out", help=f"output path (relative paths land "
                                      f"in ${OUT_DIR_ENV} when set)")
    common.add_argument("--format", choices=("jsonl", "csv"),
                        default="jsonl")
    common.add_argument("--parallel", type=int, default=1,
                        help="worker bound for trial loops")

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
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
