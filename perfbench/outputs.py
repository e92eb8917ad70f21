"""Consistency checks on what one benchmark op wrote.

Each checker takes the bytes of one op's output file and raises
OutputError when they are not a complete, self-consistent report. It
returns a few counts read from the output. Nothing here imports
fairgossip: the checks read only what a user would read.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

CHUNK = 1 << 16
MESSAGE_KINDS = frozenset({"pull_request", "intention_reply", "vote_push",
                           "cert_reply", "cert_push"})
DECISION_KINDS = frozenset({"accepted", "rejected"})


class OutputError(ValueError):
    """An op's output is truncated, altered or inconsistent."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


def _rows(data: bytes, stop: Optional[int] = None) -> Iterator[dict]:
    """The JSON object on each line of ``data[:stop]``, which must end with
    a newline. About CHUNK bytes of lines are parsed per json call, as one
    JSON array, so a large output never sits in memory as objects all at
    once; the line count guards the joins."""
    stop = len(data) if stop is None else stop
    _require(stop > 0 and data[stop - 1:stop] == b"\n",
             "output does not end with a full line")
    start = 0
    while start < stop:
        end = data.find(b"\n", min(start + CHUNK, stop - 1), stop)
        piece = data[start:end]
        try:
            rows = json.loads(b"[" + piece.replace(b"\n", b",") + b"]")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise OutputError(f"not one JSON object per line: {exc}") from None
        _require(len(rows) == piece.count(b"\n") + 1
                 and all(isinstance(row, dict) for row in rows),
                 "not one JSON object per line")
        yield from rows
        start = end + 1


def check_fairness(data: bytes, trials: int) -> dict:
    """Per-color wins plus aborts account for every trial of the block."""
    rows = list(_rows(data))
    summary = rows[-1]
    _require(summary.get("record") == "summary",
             "last record is not the summary")
    colors = rows[:-1]
    _require(bool(colors) and all(r.get("record") == "color" for r in colors),
             "expected one color record per color before the summary")
    _require(summary["trials"] == trials,
             f"summary trials {summary['trials']} != block {trials}")
    wins = sum(r["wins"] for r in colors)
    _require(wins + summary["fail_count"] == trials,
             f"wins {wins} + fail_count {summary['fail_count']} != {trials}")
    return {"records": len(rows)}


def check_attack(data: bytes, trials: int, strategies: tuple[str, ...],
                 ) -> dict:
    """Every strategy's report and audit covers every trial of the block."""
    try:
        docs = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise OutputError(f"attack output: {exc}") from None
    _require(isinstance(docs, list)
             and [d.get("strategy") for d in docs] == list(strategies),
             "attack output does not list the strategies in order")
    for doc in docs:
        eq, claims = doc["equilibrium"], doc["claims"]
        _require(eq["trials"] == trials
                 and eq["kept_pairs"] + eq["dropped_pairs"] == trials,
                 f"{doc['strategy']}: kept + dropped pairs != {trials}")
        _require(claims["traces"] == trials,
                 f"{doc['strategy']}: auditor saw {claims['traces']} "
                 f"traces, not {trials}")
    return {"records": len(docs)}


def check_trace(data: bytes, n: int) -> dict:
    """A full line log of a fault-free trial: message rows, failure rows,
    one decision per agent, then the summary record."""
    last = data.rfind(b"\n", 0, len(data) - 1) + 1
    summary = next(_rows(data[last:]))
    _require("kind" not in summary and "outcome" in summary
             and "rounds" in summary, "summary record missing")
    rounds = summary["rounds"]
    messages = failed = max_bits = max_round = 0
    min_round = 1
    deciders = []
    records = 1
    for row in _rows(data, last) if last else ():
        records += 1
        kind = row.get("kind")
        if kind in MESSAGE_KINDS:
            messages += 1
            max_bits = max(max_bits, row["payload_bits"])
            min_round = min(min_round, row["round"])
            max_round = max(max_round, row["round"])
        elif kind == "failed":
            failed += 1
        elif kind in DECISION_KINDS:
            deciders.append(row["sender"])
    _require(1 <= min_round and max_round <= rounds,
             "message round outside 1..rounds")
    _require(records == messages + failed + len(deciders) + 1,
             "record of unknown kind")
    _require(sorted(deciders) == list(range(1, n + 1)),
             f"expected one decision per agent, got {len(deciders)}")
    _require(max_bits == summary["max_message_bits"],
             "max_message_bits disagrees with the message records")
    return {"records": records, "message_records": messages,
            "rounds_observed": max_round, "rounds_reported": rounds}


CHECK_ERRORS = (OutputError, KeyError, TypeError)
