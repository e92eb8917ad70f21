"""Round-synchronous simulator for the gossip consensus protocol.

One trial runs the six phases over n agents on the complete graph with a
static set of crashed ("faulty") agents and an optional coalition driven by
a deviation strategy. Everything is deterministic in the master seed: agent
u's draws come from the derived stream (seed, u) regardless of what other
agents do or which agents are faulty, so two configurations sharing a seed
share every honest agent's randomness draw for draw.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Iterator, Mapping, Optional

import numpy as np

from fairgossip.adversary import (
    AdversaryContext,
    MemberView,
    StrategyError,
    make_strategy,
)
from fairgossip.protocol import (
    STRATEGY_STREAM_TAG,
    Certificate,
    ConfigError,
    Ledger,
    Params,
    certificate_flaw,
    derive_params,
    derive_stream,
    draw_agents,
    make_certificate,
    min_certificate,
    payoff,
    record_commitment,
    valid_intention,
    verify_certificate,
    vote_sum,
)

PHASE_COMMITMENT = "commitment"
PHASE_VOTING = "voting"
PHASE_FIND_MIN = "find_min"
PHASE_COHERENCE = "coherence"
PHASES = (PHASE_COMMITMENT, PHASE_VOTING, PHASE_FIND_MIN, PHASE_COHERENCE)


class CoalitionRegimeWarning(UserWarning):
    """The coalition is large enough that the fairness guarantees thin out."""


@dataclass(frozen=True, slots=True)
class CoalitionConfig:
    members: tuple[int, ...]
    strategy: str = "honest"
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full description of one trial; two equal configs replay identically."""

    n: int
    gamma: float
    colors: tuple[int, ...]
    chi: float = 1.0
    num_colors: int = 2
    faulty: frozenset[int] = frozenset()
    coalition: Optional[CoalitionConfig] = None
    master_seed: int = 0


@dataclass(frozen=True, slots=True)
class Calibration:
    """Empirical thresholds for classifying executions as statistically
    typical. ``beta1``/``beta2`` bound per-agent tally sizes in units of
    ln n; tuned so that fault-free desk-scale runs classify as good well
    over 99% of the time."""

    beta1: float = 0.2
    beta2: float = 8.0


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True, slots=True)
class GoodExecutionFlags:
    """Per-trial execution quality indicators.

    The d2_* flags say the fault-free statistical behavior held (tally
    sizes in the Theta(log n) band, all tickets distinct, find-min actually
    converged). The d3_* flags say the adversarial safety net held (every
    active agent's declaration was pinned by an honest non-member pull,
    coherence ended in agreement or an abort, and every active agent keeps
    a voter whose intention the coalition never saw).
    """

    d2_votes_theta_logn: bool
    d2_k_distinct: bool
    d2_findmin_converged: bool
    d3_commit_covered: bool
    d3_coherence_agree_or_fail: bool
    d3_untainted_voter: bool

    @property
    def d2_good(self) -> bool:
        return (self.d2_votes_theta_logn and self.d2_k_distinct
                and self.d2_findmin_converged)

    @property
    def d3_good(self) -> bool:
        return (self.d3_commit_covered and self.d3_coherence_agree_or_fail
                and self.d3_untainted_voter)


@dataclass(frozen=True, slots=True)
class MessageStats:
    messages: int
    bits: int
    rounds: int
    by_phase: tuple[tuple[str, int, int], ...]  # (phase, messages, bits)


@dataclass(frozen=True, slots=True)
class BitWidths:
    """Field widths (bits) used for message size accounting."""

    agent: int  # an agent id
    value: int  # a vote value / ticket
    round: int  # a round index within a phase
    color: int  # a proposal


def bit_widths(params: Params) -> BitWidths:
    return BitWidths(
        agent=(params.n - 1).bit_length(),
        value=(params.modulus - 1).bit_length(),
        round=(params.phase_rounds - 1).bit_length(),
        color=(params.num_colors - 1).bit_length(),
    )


def pull_request_bits(w: BitWidths) -> int:
    return w.agent


def intention_reply_bits(params: Params, w: BitWidths) -> int:
    return params.phase_rounds * (w.value + w.agent)


def vote_push_bits(w: BitWidths) -> int:
    return w.value


def certificate_bits(cert: Certificate, w: BitWidths) -> int:
    return (w.value + w.color + w.agent
            + len(cert.votes) * (w.value + w.agent + w.round))


@dataclass(slots=True)
class Trace:
    """Everything observable about one finished trial."""

    config: SimConfig
    params: Params
    intentions: tuple                     # index 0 unused; None for faulty
    first_declarations: dict[int, Optional[tuple]]
    tickets: dict[int, int]               # actual checksum of received votes
    tally_sizes: dict[int, int]
    cert_min: dict[int, Certificate]      # fixed from find-min onward
    faulty_marks: dict[int, tuple[int, ...]]
    coalition_pulled: frozenset[int]      # agents whose intention members saw
    covered_by_honest: frozenset[int]     # agents pinned by an honest pull
    failures: dict[int, int]              # agent -> coherence round it failed
    decisions: dict[int, Optional[int]]
    winner: Optional[int]
    outcome: Optional[int]
    flags: GoodExecutionFlags
    stats: MessageStats
    votes: Optional[list[tuple[int, int, int, int]]]    # (round, sender, target, value)
    messages: Optional[list[tuple[str, int, int, int, str, int]]]

    def agent_payoff(self, agent: int) -> float:
        return payoff(self.outcome, self.config.colors[agent - 1],
                      self.config.chi)


def validate_config(config: SimConfig) -> Params:
    params = derive_params(config.n, config.gamma, config.chi,
                           config.num_colors)
    n = config.n
    if len(config.colors) != n:
        raise ConfigError(f"need {n} colors, got {len(config.colors)}")
    if not all(isinstance(c, int) and 1 <= c <= config.num_colors
               for c in config.colors):
        raise ConfigError("colors must be ints in [1, num_colors]")
    if not all(isinstance(u, int) and 1 <= u <= n for u in config.faulty):
        raise ConfigError("faulty ids outside agent range")
    members: tuple[int, ...] = ()
    if config.coalition is not None:
        members = config.coalition.members
        if len(set(members)) != len(members):
            raise ConfigError("duplicate coalition members")
        if not all(isinstance(u, int) and 1 <= u <= n for u in members):
            raise ConfigError("coalition members outside agent range")
        if set(members) & config.faulty:
            raise ConfigError("coalition members cannot be faulty")
    if n - len(config.faulty) - len(members) < 1:
        raise ConfigError("need at least one honest non-coalition agent")
    return params


def run_trial(config: SimConfig, *, record: bool = True,
              calibration: Calibration = DEFAULT_CALIBRATION) -> Trace:
    """One trial at ``config.master_seed``; ``record=False`` leaves the
    trace's message and vote logs None."""
    params = validate_config(config)
    n, q, m = params.n, params.phase_rounds, params.modulus
    seed = config.master_seed
    faulty = config.faulty
    colors = config.colors

    coalition = config.coalition
    members: tuple[int, ...] = coalition.members if coalition else ()
    member_set = frozenset(members)
    if members and len(members) * math.log(n) >= n:
        warnings.warn(
            f"coalition of {len(members)} at n={n} is outside the "
            "small-coalition regime; guarantees degrade",
            CoalitionRegimeWarning, stacklevel=2)

    honest = [u for u in range(1, n + 1)
              if u not in faulty and u not in member_set]
    active = [u for u in range(1, n + 1) if u not in faulty]

    # Per-agent randomness: one value block then one target block per agent,
    # consumed in phase order. Faulty agents draw too — draws are a function
    # of (seed, id) alone, so the fault set never shifts anyone's stream.
    all_values, all_targets = draw_agents(seed, params)
    all_values, all_targets = all_values.tolist(), all_targets.tolist()
    intentions: list = [None] * (n + 1)
    commit_tg: list = [None] * (n + 1)
    findmin_tg: list = [None] * (n + 1)
    coherence_tg: list = [None] * (n + 1)
    for u in range(1, n + 1):
        targets = all_targets[u]
        intentions[u] = tuple(zip(all_values[u], targets[:q]))
        commit_tg[u] = targets[q:2 * q]
        findmin_tg[u] = targets[2 * q:3 * q]
        coherence_tg[u] = targets[3 * q:]

    chosen: list = list(intentions)  # what each agent actually casts

    strategy = None
    views: dict[int, MemberView] = {}
    if members:
        ctx = AdversaryContext(
            params=params, members=members,
            options=dict(coalition.options),
            rng=derive_stream(seed, STRATEGY_STREAM_TAG))
        strategy = make_strategy(coalition.strategy, ctx)
        for b in members:
            views[b] = view = MemberView(id=b, color=colors[b - 1],
                                         intention=intentions[b])
            ctx.views[b] = view
        for b in members:
            view = views[b]
            pick = strategy.choose_intention(view, intentions[b])
            if not valid_intention(pick, params):
                raise StrategyError(f"member {b}: invalid intention {pick!r}")
            chosen[b] = tuple((int(v), int(t)) for v, t in pick)
            view.chosen_intention = chosen[b]

    widths = bit_widths(params)
    b_pull = pull_request_bits(widths)
    b_reply = intention_reply_bits(params, widths)
    b_vote = vote_push_bits(widths)
    messages: Optional[list] = [] if record else None
    phase_msgs = {p: 0 for p in PHASES}
    phase_bits = {p: 0 for p in PHASES}
    rounds_run = 0

    # --- commitment: q rounds of pulling vote declarations ---------------
    ledgers: list = [None] * (n + 1)
    for u in active:
        ledgers[u] = Ledger()
    for b in members:
        views[b].ledger = ledgers[b]
    covered = [False] * (n + 1)   # pulled at least once by an honest agent
    coalition_pulled: set[int] = set()
    first_declarations: dict[int, Optional[tuple]] = {}

    n_msgs = 0
    n_bits = 0
    for rnd in range(1, q + 1):
        rounds_run += 1
        for u in active:
            if u in member_set:
                t = strategy.choose_commit_target(views[u], rnd,
                                                  commit_tg[u][rnd - 1])
                if t is None:
                    continue
                if not isinstance(t, int) or not 1 <= t <= n:
                    raise StrategyError(f"member {u}: bad pull target {t!r}")
            else:
                t = commit_tg[u][rnd - 1]
            if t != u:
                n_msgs += 1
                n_bits += b_pull
                if messages is not None:
                    messages.append((PHASE_COMMITMENT, rnd, u, t,
                                     "pull_request", b_pull))
            if t in faulty:
                ledgers[u].declarations[t] = None
            elif t in member_set:
                reply = strategy.reply_to_pull(views[t], u, rnd, chosen[t])
                if t not in first_declarations and u not in member_set:
                    # the first declaration an honest agent pins down
                    ok = reply is not None and valid_intention(reply, params)
                    first_declarations[t] = (
                        tuple((int(v), int(g)) for v, g in reply) if ok
                        else None)
                if reply is not None and t != u:
                    n_msgs += 1
                    n_bits += b_reply
                    if messages is not None:
                        messages.append((PHASE_COMMITMENT, rnd, t, u,
                                         "intention_reply", b_reply))
                record_commitment(ledgers[u], t, reply, params)
            else:
                # honest declarations are engine-built and already canonical
                if t != u:
                    n_msgs += 1
                    n_bits += b_reply
                    if messages is not None:
                        messages.append((PHASE_COMMITMENT, rnd, t, u,
                                         "intention_reply", b_reply))
                ledgers[u].declarations[t] = intentions[t]
            if u in member_set:
                if t != u:
                    coalition_pulled.add(t)
            else:
                covered[t] = True
    phase_msgs[PHASE_COMMITMENT] = n_msgs
    phase_bits[PHASE_COMMITMENT] = n_bits

    # --- voting: q rounds of pushing vote values --------------------------
    tallies: list = [None] * (n + 1)
    for u in active:
        tallies[u] = []
    for b in members:
        views[b].tally = tallies[b]
    votes_log: Optional[list] = [] if record else None

    n_msgs = 0
    n_bits = 0
    for rnd in range(1, q + 1):
        rounds_run += 1
        for u in active:
            if u in member_set:
                vote = strategy.choose_vote(views[u], rnd,
                                            chosen[u][rnd - 1])
                if vote is None:
                    continue
                if not isinstance(vote, (tuple, list)) or len(vote) != 2:
                    raise StrategyError(f"member {u}: bad vote {vote!r}")
                value, target = vote
                if (not isinstance(value, int) or not 0 <= value <= m
                        or not isinstance(target, int)
                        or not 1 <= target <= n):
                    raise StrategyError(f"member {u}: bad vote {vote!r}")
            else:
                value, target = chosen[u][rnd - 1]
            if target != u:
                n_msgs += 1
                n_bits += b_vote
                if messages is not None:
                    messages.append((PHASE_VOTING, rnd, u, target,
                                     "vote_push", b_vote))
            if votes_log is not None:
                votes_log.append((rnd, u, target, value))
            if target not in faulty:
                tallies[target].append((value, u, rnd))
    phase_msgs[PHASE_VOTING] = n_msgs
    phase_bits[PHASE_VOTING] = n_bits

    tickets: dict[int, int] = {}
    tally_sizes: dict[int, int] = {}
    ce_min: list = [None] * (n + 1)
    ce_bits: list = [0] * (n + 1)     # certificate_bits(ce_min[u], widths)
    for u in active:
        tickets[u] = vote_sum(tallies[u], m)
        tally_sizes[u] = len(tallies[u])
        cert = make_certificate(tallies[u], colors[u - 1], u, m)
        if u in member_set:
            view = views[u]
            view.own_cert = cert
            declared = strategy.declare_certificate(view, cert)
            flaw = certificate_flaw(declared, params)
            if flaw:
                raise StrategyError(f"member {u}: {flaw}")
            if declared.owner != u:
                raise StrategyError(f"member {u}: declared certificate "
                                    f"owned by {declared.owner}")
            view.declared_cert = declared
            cert = declared
        ce_min[u] = cert
        ce_bits[u] = certificate_bits(cert, widths)
        if u in member_set:
            views[u].ce_min = cert

    # --- find-min: q rounds of pulling the smallest certificate ----------
    # Pulls within a round are serialized in agent order; a reply carries
    # the replier's current certificate, so a chain of pulls can forward
    # the minimum several hops in one round.
    n_msgs = 0
    n_bits = 0
    for rnd in range(1, q + 1):
        rounds_run += 1
        for u in active:
            if u in member_set:
                t = strategy.choose_findmin_target(views[u], rnd,
                                                   findmin_tg[u][rnd - 1])
                if t is None:
                    continue
                if not isinstance(t, int) or not 1 <= t <= n:
                    raise StrategyError(f"member {u}: bad pull target {t!r}")
            else:
                t = findmin_tg[u][rnd - 1]
            if t != u:
                n_msgs += 1
                n_bits += b_pull
                if messages is not None:
                    messages.append((PHASE_FIND_MIN, rnd, u, t,
                                     "pull_request", b_pull))
            if t in faulty:
                reply = None
            elif t in member_set:
                reply = strategy.findmin_reply(views[t], u, rnd, ce_min[t])
                if reply is not None:
                    flaw = certificate_flaw(reply, params)
                    if flaw:
                        raise StrategyError(f"member {t}: {flaw}")
                    bits = certificate_bits(reply, widths)
            else:
                reply = ce_min[t]
                bits = ce_bits[t]
            if reply is None:
                continue  # no answer: keep the incumbent, no marking here
            if t != u:
                n_msgs += 1
                n_bits += bits
                if messages is not None:
                    messages.append((PHASE_FIND_MIN, rnd, t, u,
                                     "cert_reply", bits))
            folded = min_certificate(ce_min[u], reply)
            if folded is not ce_min[u]:
                ce_min[u] = folded
                ce_bits[u] = bits
                if u in member_set:
                    views[u].ce_min = folded
    phase_msgs[PHASE_FIND_MIN] = n_msgs
    phase_bits[PHASE_FIND_MIN] = n_bits

    post_findmin = {u: ce_min[u] for u in active}

    # --- coherence: q rounds of pushing; a conflicting certificate is fatal
    failures: dict[int, int] = {}
    n_msgs = 0
    n_bits = 0
    for rnd in range(1, q + 1):
        rounds_run += 1
        inbox: list = []
        for u in active:
            if u in member_set:
                default = None if u in failures else ce_min[u]
                cert = strategy.coherence_push(views[u], rnd,
                                               coherence_tg[u][rnd - 1],
                                               default)
                if cert is None:
                    continue
                flaw = certificate_flaw(cert, params)
                if flaw:
                    raise StrategyError(f"member {u}: {flaw}")
                bits = certificate_bits(cert, widths)
            else:
                if u in failures:
                    continue  # failed agents go quiet
                cert = ce_min[u]
                bits = ce_bits[u]
            target = coherence_tg[u][rnd - 1]
            if target != u:
                n_msgs += 1
                n_bits += bits
                if messages is not None:
                    messages.append((PHASE_COHERENCE, rnd, u, target,
                                     "cert_push", bits))
            inbox.append((target, cert))
        # deliveries land after every send of the round
        for target, cert in inbox:
            if target in faulty or target in failures:
                continue
            mine = ce_min[target]
            if cert is not mine and cert != mine:
                failures[target] = rnd
                if target in member_set:
                    views[target].failed = True
    phase_msgs[PHASE_COHERENCE] = n_msgs
    phase_bits[PHASE_COHERENCE] = n_bits

    # --- verification: accept the winner or abort -------------------------
    decisions: dict[int, Optional[int]] = {}
    for u in active:
        if u in failures:
            default = None
        else:
            res = verify_certificate(ce_min[u], ledgers[u], params)
            default = res.color if res.accepted else None
        if u in member_set:
            pick = strategy.final_decision(views[u], default)
            if pick is not None and (not isinstance(pick, int)
                                     or not 1 <= pick <= params.num_colors):
                raise StrategyError(f"member {u}: bad decision {pick!r}")
            decisions[u] = pick
        else:
            decisions[u] = default

    if any(u in failures for u in honest):
        winner = None
    else:
        head = ce_min[honest[0]]
        winner = head.owner if all(
            ce_min[u] is head or ce_min[u] == head for u in honest) else None

    first_decision = decisions[honest[0]]
    if first_decision is not None and all(
            decisions[u] == first_decision for u in honest):
        outcome = first_decision
    else:
        outcome = None

    flags = _classify(params, calibration, honest, active, member_set,
                      tally_sizes, tickets, post_findmin, ce_min, failures,
                      covered, coalition_pulled, intentions)

    by_phase = tuple((p, phase_msgs[p], phase_bits[p]) for p in PHASES)
    stats = MessageStats(
        messages=sum(phase_msgs.values()),
        bits=sum(phase_bits.values()),
        rounds=rounds_run,
        by_phase=by_phase)

    return Trace(
        config=config,
        params=params,
        intentions=tuple(None if (u == 0 or u in faulty) else intentions[u]
                         for u in range(n + 1)),
        first_declarations=first_declarations,
        tickets=tickets,
        tally_sizes=tally_sizes,
        cert_min={u: ce_min[u] for u in active},
        faulty_marks={u: tuple(sorted(ledgers[u].faulty_marks))
                      for u in active},
        coalition_pulled=frozenset(coalition_pulled),
        covered_by_honest=frozenset(u for u in active if covered[u]),
        failures=failures,
        decisions=decisions,
        winner=winner,
        outcome=outcome,
        flags=flags,
        stats=stats,
        votes=votes_log,
        messages=messages,
    )


def _classify(params, calibration, honest, active, member_set, tally_sizes,
              tickets, post_findmin, ce_min, failures, covered,
              coalition_pulled, intentions) -> GoodExecutionFlags:
    log_n = math.log(params.n)
    lo = calibration.beta1 * log_n
    hi = calibration.beta2 * log_n
    votes_band = all(lo <= tally_sizes[u] <= hi for u in active)

    honest_tickets = [tickets[u] for u in honest]
    k_distinct = len(set(honest_tickets)) == len(honest_tickets)

    head = post_findmin[honest[0]]
    converged = all(post_findmin[u] is head or post_findmin[u] == head
                    for u in honest)

    commit_covered = all(covered[u] for u in active)

    if any(u in failures for u in honest):
        agree_or_fail = True
    else:
        head_end = ce_min[honest[0]]
        agree_or_fail = all(ce_min[u] is head_end or ce_min[u] == head_end
                            for u in honest)

    tainted = member_set | coalition_pulled
    untainted_targets: set[int] = set()
    for v in honest:
        if v not in tainted:
            untainted_targets.update(t for _, t in intentions[v])
    untainted_voter = all(u in untainted_targets for u in active)

    return GoodExecutionFlags(
        d2_votes_theta_logn=votes_band,
        d2_k_distinct=k_distinct,
        d2_findmin_converged=converged,
        d3_commit_covered=commit_covered,
        d3_coherence_agree_or_fail=agree_or_fail,
        d3_untainted_voter=untainted_voter,
    )


# --- coalition-free kernel ------------------------------------------------

# Tickets are summed in int64 while the largest tally's bound
# (votes x modulus) stays below this; past it, in Python ints.
_I64_SUM_LIMIT = 2 ** 63


def run_honest_trials(config: SimConfig, seeds: Iterable[int],
                      calibration: Calibration = DEFAULT_CALIBRATION,
                      ) -> Iterator[tuple[Optional[int], Optional[int],
                                          GoodExecutionFlags]]:
    """``(outcome, winner, flags)`` of a coalition-free config at each seed,
    equal to what ``run_trial`` reports at that master seed.

    Without a coalition every certificate is built by the engine from a
    real tally and every ledger entry is a real intention, so verification
    always accepts: the outcome follows from the tickets, find-min and
    coherence alone, and a certificate is identified by its owner. The
    draws are ``draw_agents``'; find-min is ``run_trial``'s serialized loop
    over (ticket, owner) pairs; coherence runs only when find-min left
    different owners, and then aborts iff some push in some round reaches
    a live agent holding another owner (until the first failure every
    agent pushes). ``run_trial`` stays the definition; tests/test_engine.py
    compares the two seed by seed.
    """
    if config.coalition is not None:
        raise ConfigError("run_honest_trials takes a coalition-free config")
    params = validate_config(config)
    n, q, m = params.n, params.phase_rounds, params.modulus
    colors = config.colors
    active = [u for u in range(1, n + 1) if u not in config.faulty]
    act = np.array(active)
    live = np.zeros(n + 1, dtype=bool)
    live[act] = True
    log_n = math.log(n)
    lo, hi = calibration.beta1 * log_n, calibration.beta2 * log_n

    def trial(seed: int):
        values, targets = draw_agents(seed, params)
        values, targets = values[act], targets[act]
        vote_tg = targets[:, :q]
        # a vote to a faulty receiver is dropped; its bin is never read
        sizes = np.bincount(vote_tg.ravel(), minlength=n + 1)
        if int(sizes.max()) * m < _I64_SUM_LIMIT:
            sums = np.zeros(n + 1, dtype=np.int64)
            np.add.at(sums, vote_tg, values)
            held = (sums % m).tolist()
        else:
            held = [0] * (n + 1)
            for v, t in zip(values.ravel().tolist(), vote_tg.ravel().tolist()):
                held[t] += v
            held = [s % m for s in held]
        tickets = [held[u] for u in active]

        # find-min: pulls serialized in agent order, ties keep the incumbent;
        # a faulty agent holds ticket m, so pulling it never changes a thing
        owner = list(range(n + 1))
        for u in config.faulty:
            held[u] = m
        for row in targets[:, 2 * q:3 * q].T.tolist():
            for u, t in zip(active, row):
                if held[t] < held[u]:
                    held[u] = held[t]
                    owner[u] = owner[t]
        holders = [owner[u] for u in active]
        head = holders[0]
        converged = holders.count(head) == len(holders)

        failed = False
        if not converged:
            own = np.array(owner)
            coherence_tg = targets[:, 3 * q:]
            failed = bool(((own[coherence_tg] != own[act][:, None])
                           & live[coherence_tg]).any())
        color = colors[head - 1]
        if failed:
            winner = outcome = None
        elif converged:
            winner, outcome = head, color
        else:
            winner = None
            outcome = color if all(colors[o - 1] == color
                                   for o in holders) else None

        band = sizes[act]
        covered = np.zeros(n + 1, dtype=bool)
        covered[targets[:, q:2 * q]] = True
        voted = np.zeros(n + 1, dtype=bool)
        voted[vote_tg] = True
        flags = GoodExecutionFlags(
            d2_votes_theta_logn=bool(((lo <= band) & (band <= hi)).all()),
            d2_k_distinct=len(set(tickets)) == len(tickets),
            d2_findmin_converged=converged,
            d3_commit_covered=bool(covered[act].all()),
            d3_coherence_agree_or_fail=converged or failed,
            d3_untainted_voter=bool(voted[act].all()),
        )
        return outcome, winner, flags

    return map(trial, seeds)


# --- trace serialization --------------------------------------------------

def _flags_dict(flags: GoodExecutionFlags) -> dict[str, bool]:
    return {f.name: getattr(flags, f.name) for f in fields(flags)}


def _cert_to_list(cert: Certificate) -> list:
    return [cert.ticket, [list(v) for v in cert.votes], cert.color,
            cert.owner]


def trace_to_dict(trace: Trace) -> dict:
    """Plain-data form of a trace; stable across runs for a fixed config."""
    cfg = trace.config
    coalition = None
    if cfg.coalition is not None:
        coalition = {
            "members": list(cfg.coalition.members),
            "strategy": cfg.coalition.strategy,
            "options": dict(cfg.coalition.options),
        }
    return {
        "config": {
            "n": cfg.n,
            "gamma": cfg.gamma,
            "chi": cfg.chi,
            "num_colors": cfg.num_colors,
            "colors": list(cfg.colors),
            "faulty": sorted(cfg.faulty),
            "coalition": coalition,
            "master_seed": cfg.master_seed,
        },
        "modulus": trace.params.modulus,
        "phase_rounds": trace.params.phase_rounds,
        "intentions": [list(map(list, i)) if i is not None else None
                       for i in trace.intentions[1:]],
        "first_declarations": {
            str(b): (list(map(list, d)) if d is not None else None)
            for b, d in trace.first_declarations.items()},
        "tickets": {str(u): k for u, k in trace.tickets.items()},
        "tally_sizes": {str(u): s for u, s in trace.tally_sizes.items()},
        "cert_min": {str(u): _cert_to_list(c)
                     for u, c in trace.cert_min.items()},
        "faulty_marks": {str(u): list(ms)
                         for u, ms in trace.faulty_marks.items() if ms},
        "coalition_pulled": sorted(trace.coalition_pulled),
        "failures": {str(u): r for u, r in trace.failures.items()},
        "decisions": {str(u): d for u, d in trace.decisions.items()},
        "winner": trace.winner,
        "outcome": trace.outcome,
        "flags": _flags_dict(trace.flags),
        "stats": {
            "messages": trace.stats.messages,
            "bits": trace.stats.bits,
            "rounds": trace.stats.rounds,
            "by_phase": {p: [c, b] for p, c, b in trace.stats.by_phase},
        },
        "votes": ([list(v) for v in trace.votes]
                  if trace.votes is not None else None),
        "messages": ([list(msg) for msg in trace.messages]
                     if trace.messages is not None else None),
    }


def trace_json_line(trace: Trace) -> str:
    """Canonical one-line JSON: key-sorted, no whitespace. Equal configs
    produce byte-identical lines."""
    return json.dumps(trace_to_dict(trace), sort_keys=True,
                      separators=(",", ":"))


# Field order of the non-summary rows `trace_log_records` yields.
LOG_FIELDS = ("round", "kind", "sender", "receiver", "payload_bits")


def trace_log_records(trace: Trace):
    """Line-delimited export: one row per message and per agent state
    transition (entering the failed state, deciding), as a tuple in
    `LOG_FIELDS` order, then one summary dict. Round numbers are global
    (1..4q); the trace must have been run with message recording on for
    the message rows to appear. Decision and failure rows have receiver
    None and payload_bits 0.
    """
    q = trace.params.phase_rounds
    offset = {p: i * q for i, p in enumerate(PHASES)}
    messages = trace.messages or ()
    for phase, rnd, sender, receiver, kind, bits in messages:
        yield (offset[phase] + rnd, kind, sender, receiver, bits)
    for u in sorted(trace.failures):
        yield (offset[PHASE_COHERENCE] + trace.failures[u], "failed", u,
               None, 0)
    for u in sorted(trace.decisions):
        kind = "rejected" if trace.decisions[u] is None else "accepted"
        yield (trace.stats.rounds, kind, u, None, 0)
    yield {"outcome": trace.outcome, "winner": trace.winner,
           "rounds": trace.stats.rounds,
           "max_message_bits": max((m[5] for m in messages), default=0),
           "flags": _flags_dict(trace.flags)}
