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
from itertools import islice
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Optional

import numpy as np

from fairgossip.adversary import (
    AdversaryContext,
    MemberView,
    StrategyError,
    make_strategy,
)
from fairgossip.protocol import (
    BAD_CHECKSUM,
    Certificate,
    ConfigError,
    Params,
    certificate_flaw,
    derive_params,
    derive_stream,  # not called; perfbench/worker.py wraps it here
    draw_agents,
    draw_batch,
    make_certificate,
    min_certificate,  # not called; perfbench/worker.py wraps it here
    payoff,
    record_commitment,
    valid_intention,
    valid_vote,
    verify_certificate,  # not called; perfbench/worker.py wraps it here
    vote_flaw,
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
class Calibration:
    """Empirical thresholds for classifying executions as statistically
    typical. ``beta1``/``beta2`` bound per-agent tally sizes in units of
    ln n, so 0 <= beta1 <= beta2; tuned so that fault-free desk-scale runs
    classify as good well over 99% of the time. A field of ``SimConfig``."""

    beta1: float = 0.2
    beta2: float = 8.0


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full description of one trial, the calibration behind its flags
    included; two equal configs replay identically."""

    n: int
    gamma: float
    colors: tuple[int, ...]
    chi: float = 1.0
    num_colors: int = 2
    faulty: frozenset[int] = frozenset()
    coalition: Optional[CoalitionConfig] = None
    master_seed: int = 0
    calibration: Calibration = DEFAULT_CALIBRATION


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
    if not all(type(c) is int and 1 <= c <= config.num_colors
               for c in config.colors):
        raise ConfigError("colors must be ints in [1, num_colors]")
    if not all(type(u) is int and 1 <= u <= n for u in config.faulty):
        raise ConfigError("faulty ids outside agent range")
    members: tuple[int, ...] = ()
    if config.coalition is not None:
        members = config.coalition.members
        if len(set(members)) != len(members):
            raise ConfigError("duplicate coalition members")
        if not all(type(u) is int and 1 <= u <= n for u in members):
            raise ConfigError("coalition members outside agent range")
        if set(members) & config.faulty:
            raise ConfigError("coalition members cannot be faulty")
    if n - len(config.faulty) - len(members) < 1:
        raise ConfigError("need at least one honest non-coalition agent")
    cal = config.calibration
    if not 0 <= cal.beta1 <= cal.beta2:
        raise ConfigError(f"calibration: need 0 <= beta1 <= beta2, "
                          f"got beta1={cal.beta1}, beta2={cal.beta2}")
    return params


def run_trial(config: SimConfig, *, record: bool = True,
              draws: Optional[tuple[np.ndarray, np.ndarray]] = None,
              ) -> Trace:
    """One trial at ``config.master_seed``; ``record=False`` leaves the
    trace's message and vote logs None. ``draws`` are that seed's
    ``draw_agents`` rows, when the caller drew them already (in a
    ``draw_batch`` over several seeds)."""
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
    # plain[u]: u is honest and not a member, so an active agent that is not
    # plain is a member. A plain agent answers every pull the same way,
    # whoever pulls, so a pull of one calls no hook and checks nothing.
    plain = [False] * (n + 1)
    for u in honest:
        plain[u] = True

    # Per-agent randomness: one value block then one target block per agent,
    # consumed in phase order. Faulty agents draw too — draws are a function
    # of (seed, id) alone, so the fault set never shifts anyone's stream.
    # Row i of `pulls` holds active[i]'s q drawn commitment targets; row r
    # of `columns` and of `pushes` holds every active agent's drawn
    # find-min and coherence target of round r + 1.
    drawn_values, drawn_targets = (draw_agents(seed, params)
                                   if draws is None else draws)
    intentions: list = [
        tuple(zip(values, targets)) for values, targets in
        zip(drawn_values.tolist(), drawn_targets[:, :q].tolist())]
    senders = np.array(active)
    is_plain = np.array(plain)
    pulls = drawn_targets[senders, q:2 * q]
    columns = drawn_targets[senders, 2 * q:3 * q].T.tolist()
    pushes = drawn_targets[senders, 3 * q:].T

    chosen: list = list(intentions)  # what each agent actually casts

    strategy = None
    views: dict[int, MemberView] = {}
    if members:
        strategy = make_strategy(coalition.strategy, AdversaryContext(
            params=params, members=members,
            options=dict(coalition.options), seed=seed))
        for b in members:
            views[b] = MemberView(id=b, color=colors[b - 1])
        for b in members:
            view = views[b]
            pick = strategy.choose_intention(view, intentions[b])
            if pick is not intentions[b]:
                if not valid_intention(pick, params):
                    raise StrategyError(
                        f"member {b}: invalid intention {pick!r}")
                pick = tuple((int(v), int(t)) for v, t in pick)
            view.chosen_intention = chosen[b] = pick

    widths = bit_widths(params)
    b_pull = widths.agent                           # the puller's id
    b_reply = q * (widths.value + widths.agent)     # q (value, target) pairs
    b_vote = widths.value
    messages: Optional[list] = [] if record else None
    by_phase: list = []     # (phase, messages, bits), appended as each ends

    # --- commitment: q rounds of pulling vote declarations ---------------
    # A plain agent pulls its drawn targets, and a plain target answers
    # every pull with its intention. So a plain agent's ledger files only
    # its member and faulty targets' answers; its plain entries are the
    # plain agents in its row of `pulls`. A member's ledger files every
    # answer. The loop visits, in (round, id) order, only the pulls a
    # member makes or a non-plain agent gets; `pulled` ends with every
    # pull's target, 0 for a skipped one.
    declared: list = [None] * (n + 1)     # each active agent's ledger
    for u in active:
        declared[u] = {}
    for b in members:
        views[b].ledger = MappingProxyType(declared[b])
    coalition_pulled: set[int] = set()
    first_declarations: dict[int, Optional[tuple]] = {}
    # member replies that need no check, by id: each member's chosen
    # intention and every reply that passed record_commitment. Holding each
    # one keeps its id from being reused within the trial.
    kept: dict[int, tuple] = {id(chosen[b]): chosen[b] for b in members}

    pulled = pulls.T.copy()               # (round, row)
    answered: list = []     # (round, row) of each pull a member answered
    cells = np.nonzero(~(is_plain[pulled] & is_plain[senders]))
    for r, i, t in zip(*(a.tolist() for a in (*cells, pulled[cells]))):
        u, rnd = active[i], r + 1
        if not plain[u]:
            t = strategy.choose_commit_target(views[u], rnd, t)
            if t is None:
                pulled[r, i] = 0
                continue
            _check_target(u, t, n)
            pulled[r, i] = t
            if t != u:
                coalition_pulled.add(t)
            if plain[t]:
                # honest declarations are engine-built and already canonical
                declared[u][t] = intentions[t]
                continue
        if t in faulty:
            declared[u][t] = None
            continue
        reply = strategy.reply_to_pull(views[t], u, rnd, chosen[t])
        if kept.get(id(reply)) is reply:
            # canonical already; a None reply (no id in kept) files the
            # no-reply mark, as record_commitment would
            declared[u][t] = filed = reply
        else:
            filed = record_commitment(declared[u], t, reply, params)
            if filed is not None and type(reply) is tuple and all(
                    type(pair) is tuple for pair in reply):
                # tuples all the way down to the checked ints, so the
                # same object is the same declaration
                kept[id(reply)] = reply
        if t not in first_declarations and plain[u]:
            # the first declaration an honest agent pins down
            first_declarations[t] = filed
        if reply is not None:
            answered.append((r, i))
    sent = (pulled != senders) & (pulled > 0)     # a self-pull sends nothing
    replied = is_plain[pulled]
    if answered:
        replied[tuple(zip(*answered))] = True
    replied &= sent
    n_pulls, n_replies = int(sent.sum()), int(replied.sum())
    by_phase.append((PHASE_COMMITMENT, n_pulls + n_replies,
                     n_pulls * b_pull + n_replies * b_reply))
    if messages is not None:
        # (round, puller) order, each reply right after its request
        r, i = np.nonzero(sent)
        for rnd, u, t, answer in zip((r + 1).tolist(), senders[i].tolist(),
                                     pulled[sent].tolist(),
                                     replied[sent].tolist()):
            messages.append((PHASE_COMMITMENT, rnd, u, t, "pull_request",
                             b_pull))
            if answer:
                messages.append((PHASE_COMMITMENT, rnd, t, u,
                                 "intention_reply", b_reply))

    # --- voting: q rounds of pushing vote values --------------------------
    # Row i holds the q votes active[i] pushes, in round order: an honest
    # agent's as drawn, a member's as its hook returns them, in (round, id)
    # order. A withheld vote has target 0, whose tally is never read, nor
    # is a faulty receiver's.
    cast_values = drawn_values[senders]
    cast_targets = drawn_targets[senders, :q]
    rows = {b: active.index(b) for b in sorted(members)}
    for rnd in range(1, q + 1):
        for b, i in rows.items():
            default = chosen[b][rnd - 1]
            vote = strategy.choose_vote(views[b], rnd, default)
            if vote is None:
                cast_targets[i, rnd - 1] = 0
                continue
            if vote is not default and not valid_vote(vote, params):
                raise StrategyError(f"member {b}: bad vote {vote!r}")
            cast_values[i, rnd - 1], cast_targets[i, rnd - 1] = vote
    pushed = ((cast_targets != senders[:, None]) & (cast_targets > 0)).sum()
    by_phase.append((PHASE_VOTING, int(pushed), int(pushed) * b_vote))
    votes_log: Optional[list] = None
    if record:
        # (round, sender) order: down each round's column in turn
        by_round = cast_targets.T > 0
        rnd_index, row = np.nonzero(by_round)
        votes_log = list(zip((rnd_index + 1).tolist(),
                             senders[row].tolist(),
                             cast_targets.T[by_round].tolist(),
                             cast_values.T[by_round].tolist()))
        messages.extend((PHASE_VOTING, rnd, u, target, "vote_push", b_vote)
                        for rnd, u, target, _ in votes_log if target != u)
    sizes, sums = _tally(cast_targets.ravel(), cast_values, n + 1, m)
    tally_sizes = dict(zip(active, sizes[senders].tolist()))
    tickets = dict(zip(active, sums[senders].tolist()))

    # An honest certificate is held as its owner's id until something reads
    # it (see _Certificates); ce_ticket and ce_bits hold its ticket and
    # certificate_bits, which depends only on its size. A member's own
    # certificate is built for its declare_certificate hook, and a member
    # only ever holds built ones.
    certs = _Certificates(senders, cast_values, cast_targets, colors, m)
    ce_min: list = list(range(n + 1))
    ce_ticket: list = sums.tolist()
    head_bits = widths.value + widths.color + widths.agent
    vote_bits = widths.value + widths.agent + widths.round
    ce_bits: list = [head_bits + size * vote_bits for size in sizes.tolist()]
    for b in rows:
        own = certs.get(b)
        cert = strategy.declare_certificate(views[b], own)
        if cert is not own:
            ce_bits[b] = _check_cert(b, cert, params, widths)
            if cert.owner != b:
                raise StrategyError(f"member {b}: declared certificate "
                                    f"owned by {cert.owner}")
            ce_ticket[b] = cert.ticket
        views[b].ce_min = ce_min[b] = cert

    # --- find-min: q rounds of pulling the smallest certificate ----------
    # Pulls within a round are serialized in agent order; a reply carries
    # the replier's current certificate, so a chain of pulls can forward
    # the minimum several hops in one round. A plain target answers with
    # what it holds, a member through its hook, a faulty one not at all
    # (held None); a self-pull sends nothing but is answered all the same.
    sent = 0            # pulls sent
    lone = 0            # sent pulls left unanswered
    reply_bits = 0      # bits of the replies
    for rnd, col in enumerate(columns, 1):
        for u, t in zip(active, col):
            if not plain[u]:
                t = strategy.choose_findmin_target(views[u], rnd, t)
                if t is None:
                    continue
                _check_target(u, t, n)
            held, bits, ticket = ce_min[t], ce_bits[t], ce_ticket[t]
            if not plain[t]:
                held = (None if t in faulty else
                        strategy.findmin_reply(views[t], u, rnd, held))
                if held is None:
                    bits = 0
                    if t != u:
                        lone += 1
                # every ce_min is an honest agent's certificate or passed
                # _check_cert, and certificates are frozen
                elif held is not ce_min[t]:
                    bits = _check_cert(t, held, params, widths)
                    ticket = held.ticket
            if t != u:
                sent += 1
                reply_bits += bits
                if messages is not None:
                    messages.append((PHASE_FIND_MIN, rnd, u, t,
                                     "pull_request", b_pull))
                    if held is not None:
                        messages.append((PHASE_FIND_MIN, rnd, t, u,
                                         "cert_reply", bits))
            # min_certificate: only a strictly smaller ticket wins
            if ticket < ce_ticket[u] and held is not None:
                ce_min[u], ce_bits[u], ce_ticket[u] = held, bits, ticket
                if not plain[u]:
                    views[u].ce_min = ce_min[u] = certs.get(held)
    by_phase.append((PHASE_FIND_MIN, 2 * sent - lone,
                     sent * b_pull + reply_bits))

    # --- coherence: q rounds of pushing; a conflicting certificate is fatal
    # `label` holds each agent's certificate as a number, equal ones
    # sharing it (see _Certificates.label), and 0 for a faulty agent. A
    # plain agent pushes its own certificate every round until it fails,
    # so only its pushes to a live agent with another label can fail
    # anyone; those and the member hooks go round by round.
    certs.ids = {ce_min[u] for u in active if type(ce_min[u]) is int}
    label = [0] * (n + 1)
    for u in active:
        label[u] = certs.label(ce_min[u])
    labels = np.array(label)
    received = labels[pushes]
    cells = np.nonzero(is_plain[senders] & (received > 0)
                       & (received != labels[senders]))
    # the clashing pushes of round r + 1 are items ends[r]:ends[r + 1]
    ends = [0, *np.searchsorted(cells[0], np.arange(1, q + 1)).tolist()]
    clash_rows, clash_targets = cells[1].tolist(), pushes[cells].tolist()
    sent = pushes != senders                # a self-push sends nothing
    cell_bits = np.repeat(np.array(ce_bits)[senders][None], q, axis=0)
    hooked = [(b, i, pushes[:, i].tolist()) for b, i in rows.items()]
    failures: dict[int, int] = {}
    for r in range(q):
        span = slice(ends[r], ends[r + 1])
        # failed agents go quiet, and a failed receiver stays failed
        inbox = [(i, target) for i, target in zip(clash_rows[span],
                                                  clash_targets[span])
                 if active[i] not in failures and target not in failures]
        for b, i, targets in hooked:
            target = targets[r]
            default = None if b in failures else ce_min[b]
            cert = strategy.coherence_push(views[b], r + 1, target, default)
            if cert is None:
                sent[r, i] = False
                continue
            if cert is ce_min[b]:
                held = label[b]
            else:
                cell_bits[r, i] = _check_cert(b, cert, params, widths)
                held = certs.label(cert)
            if 0 < label[target] != held:
                inbox.append((i, target))
        # deliveries land after every send of the round, in sender order
        for _, target in sorted(inbox):
            failures.setdefault(target, r + 1)
    if failures:
        # a plain agent sends nothing after the round it failed in
        quiet = np.full(n + 1, q)
        quiet[list(failures)] = list(failures.values())
        quiet[list(members)] = q
        sent &= np.arange(q)[:, None] < quiet[senders]
    by_phase.append((PHASE_COHERENCE, int(sent.sum()),
                     int(cell_bits[sent].sum())))
    if messages is not None:
        r, i = np.nonzero(sent)
        messages.extend(
            (PHASE_COHERENCE, rnd, u, target, "cert_push", bits)
            for rnd, u, target, bits in zip(
                (r + 1).tolist(), senders[i].tolist(),
                pushes[sent].tolist(), cell_bits[sent].tolist()))

    # --- verification: accept the winner or abort -------------------------
    # Every agent, member or not, audits each distinct certificate once
    # (see _audit) and checks the audit against its own ledger, a plain
    # agent's pulls standing in for its plain entries.
    cert_min = {u: certs.get(ce_min[u]) for u in active}
    decisions: dict[int, Optional[int]] = {}
    audits: dict[int, Optional[tuple]] = {}
    for u, row in zip(active, pulls.tolist()):
        if u in failures:
            default = None
        else:
            cert = cert_min[u]
            key = id(cert)      # cert_min holds every cert for the whole loop
            if key not in audits:
                audits[key] = _audit(cert, m, intentions, plain, member_set)
            default = (None if _rejection(audits[key], declared[u],
                                          row if plain[u] else ())
                       else cert.color)
        if not plain[u]:
            pick = strategy.final_decision(views[u], default)
            if pick is not None and (type(pick) is not int
                                     or not 1 <= pick <= params.num_colors):
                raise StrategyError(f"member {u}: bad decision {pick!r}")
            decisions[u] = pick
        else:
            decisions[u] = default

    # nothing replaces a certificate after find-min, so this is both
    # find-min's convergence and the agreement coherence ends in
    converged = bool((labels[honest] == labels[honest[0]]).all())
    failed = any(u in failures for u in honest)
    winner = cert_min[honest[0]].owner if converged and not failed else None

    first_decision = decisions[honest[0]]
    if first_decision is not None and all(
            decisions[u] == first_decision for u in honest):
        outcome = first_decision
    else:
        outcome = None

    # honest agents pull and vote for their drawn targets
    untainted = [v for v in honest if v not in coalition_pulled]
    flags, = _classify(
        config, active, sizes[None],
        np.bincount(drawn_targets[honest, q:2 * q].ravel(),
                    minlength=n + 1)[None],
        np.bincount(drawn_targets[untainted, :q].ravel(),
                    minlength=n + 1)[None],
        [[tickets[u] for u in honest]], [converged], [failed])

    stats = MessageStats(
        messages=sum(msgs for _, msgs, _ in by_phase),
        bits=sum(bits for _, _, bits in by_phase),
        rounds=4 * q,     # every phase runs its q rounds
        by_phase=tuple(by_phase))

    return Trace(
        config=config,
        params=params,
        intentions=tuple(None if (u == 0 or u in faulty) else intentions[u]
                         for u in range(n + 1)),
        first_declarations=first_declarations,
        tickets=tickets,
        tally_sizes=tally_sizes,
        cert_min=cert_min,
        faulty_marks={u: tuple(sorted([v for v, d in declared[u].items()
                                       if d is None])) if declared[u] else ()
                      for u in active},
        coalition_pulled=frozenset(coalition_pulled),
        failures=failures,
        decisions=decisions,
        winner=winner,
        outcome=outcome,
        flags=flags,
        stats=stats,
        votes=votes_log,
        messages=messages,
    )


def _check_target(u: int, t: object, n: int) -> None:
    """Member ``u``'s commitment or find-min pull must name an agent."""
    if type(t) is not int or not 1 <= t <= n:
        raise StrategyError(f"member {u}: bad pull target {t!r}")


def _check_cert(u: int, cert: object, params: Params,
                widths: BitWidths) -> int:
    """The size of a certificate member ``u`` sends, which must fit the
    wire format."""
    flaw = certificate_flaw(cert, params)
    if flaw:
        raise StrategyError(f"member {u}: {flaw}")
    return certificate_bits(cert, widths)


def _audit(cert: Certificate, modulus: int, intentions: list,
           plain: list, member_set: frozenset) -> Optional[tuple]:
    """The part of ``verify_certificate`` that is the same for every
    verifier: None for a bad checksum, else ``(owner, checks)``.

    Only the engine files ledger entries, so for a non-member sender s
    every agent's ledger, a member's too, can hold only ``intentions[s]``
    if s is honest and a None mark if it is faulty: such a vote can fail
    only with its ``vote_flaw`` against that one possible entry. ``checks``
    lists, in certificate order, each such failing vote with its reason
    and every member vote with reason None, as (sender, value, round,
    reason); ``_rejection`` checks those against each verifier's own
    entries."""
    if cert.ticket != vote_sum(cert.votes, modulus):
        return None
    owner = cert.owner
    checks = []
    for value, sender, rnd in cert.votes:
        if sender in member_set:
            checks.append((sender, value, rnd, None))
        else:
            flaw = vote_flaw(intentions[sender] if plain[sender] else None,
                             value, rnd, owner)
            if flaw:
                checks.append((sender, value, rnd, flaw))
    return owner, checks


def _rejection(audit: Optional[tuple], declarations: dict,
               pulled) -> Optional[str]:
    """The reason ``verify_certificate`` gives for rejecting the audited
    certificate against a verifier's ledger, or None if it accepts: the
    first failing check whose sender it pulled. The ledger is
    ``declarations`` plus, for each plain agent in ``pulled`` that it
    leaves out, that agent's intention."""
    if audit is None:
        return BAD_CHECKSUM
    owner, checks = audit
    for sender, value, rnd, flaw in checks:
        if sender in declarations:
            flaw = flaw or vote_flaw(declarations[sender], value, rnd, owner)
            if flaw:
                return flaw
        elif flaw and sender in pulled:
            return flaw
    return None


# Tickets are summed in int64 while the largest tally's bound
# (votes x modulus) stays below this; past it, in Python ints.
_I64_SUM_LIMIT = 2 ** 63


def _tally(bins: np.ndarray, values: np.ndarray, size: int,
           modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Tally sizes and tickets of receivers 0..size-1, where vote i has
    value ``values.flat[i]`` and goes to receiver ``bins[i]``: the sizes and
    the sums mod ``modulus``, as arrays, the sums holding Python ints once
    they may pass int64."""
    sizes = np.bincount(bins, minlength=size)
    dtype = np.int64 if int(sizes.max()) * modulus < _I64_SUM_LIMIT else object
    sums = np.zeros(size, dtype=dtype)
    np.add.at(sums, bins, values.ravel().astype(dtype))
    return sizes, sums % modulus


class _Certificates:
    """The certificate each receiver would build over the votes it got, as
    ``run_trial`` holds them. Until something reads one, a holder keeps its
    owner's id; ``get`` builds it on first read, through
    ``make_certificate`` in (sender, round) order, and hands every later
    reader that same object."""

    __slots__ = ("senders", "values", "targets", "colors", "modulus",
                 "built", "ids", "others", "seen")

    def __init__(self, senders: np.ndarray, values: np.ndarray,
                 targets: np.ndarray, colors: tuple, modulus: int):
        # row i: the votes of senders[i], in round order; senders ascend
        self.senders, self.values, self.targets = senders, values, targets
        self.colors, self.modulus = colors, modulus
        self.built: dict[int, Certificate] = {}
        self.ids: set = set()     # the owner ids ``label`` compares with
        self.others: dict[Certificate, int] = {}
        self.seen: dict[int, tuple] = {}      # id -> (certificate, label)

    def get(self, held) -> Certificate:
        """The certificate ``held`` stands for: itself, or its owner's."""
        if type(held) is not int:
            return held
        cert = self.built.get(held)
        if cert is None:
            row, col = np.nonzero(self.targets == held)
            cert = self.built[held] = make_certificate(
                zip(self.values[row, col].tolist(),
                    self.senders[row].tolist(), (col + 1).tolist()),
                self.colors[held - 1], held, self.modulus)
        return cert

    def label(self, held) -> int:
        """A number for held certificate ``held`` that two held
        certificates share iff they are equal. An owner id is its own
        number, as is a certificate equal to the one built for an id in
        ``ids``; any other certificate takes a number past every agent id.
        Only an id in ``ids`` is built."""
        if type(held) is int:
            return held
        hit = self.seen.get(id(held))
        if hit is None:
            owner = held.owner
            if owner in self.ids and held == self.get(owner):
                number = owner
            else:
                number = self.others.setdefault(
                    held, len(self.colors) + 1 + len(self.others))
            # holding the certificate keeps its id from being reused
            hit = self.seen[id(held)] = held, number
        return hit[1]


def _classify(config, active, sizes, pulls, votes, tickets, converged,
              failed) -> list[GoodExecutionFlags]:
    """The flags of a batch of trials of ``config``, under its calibration,
    one row each. ``sizes``, ``pulls`` and ``votes`` are (trials, n+1)
    counts per agent: tally size, commitment pulls by honest agents, and
    intended votes from honest agents that no member pulled. Per trial,
    ``tickets`` are the honest agents' tickets, ``converged`` says find-min
    left every honest agent the same certificate and ``failed`` that one
    of them failed coherence."""
    log_n, cal = math.log(config.n), config.calibration
    lo, hi = cal.beta1 * log_n, cal.beta2 * log_n
    band = sizes[:, active]
    in_band = ((lo <= band) & (band <= hi)).all(axis=1).tolist()
    covered = (pulls[:, active] > 0).all(axis=1).tolist()
    voted = (votes[:, active] > 0).all(axis=1).tolist()
    return [GoodExecutionFlags(
                d2_votes_theta_logn=b,
                d2_k_distinct=len(set(k)) == len(k),
                d2_findmin_converged=c,
                d3_commit_covered=p,
                d3_coherence_agree_or_fail=c or f,
                d3_untainted_voter=v)
            for b, k, c, f, p, v in zip(in_band, tickets, converged, failed,
                                        covered, voted)]


# --- coalition-free kernel ------------------------------------------------

# Seeds are drawn in chunks of at most this many stream words (seeds x
# agents x 5q): about 1 MB of words, and arrays of a few MB per chunk in
# all.
_CHUNK_WORDS = 1 << 17


def draw_chunks(seeds: Iterator[int], params: Params,
                ) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """``(chunk, values, targets)`` for consecutive chunks of ``seeds``,
    each taken only when it is needed and drawn with one ``draw_batch``;
    ``values[i]`` and ``targets[i]`` are ``draw_agents(chunk[i], params)``.
    """
    per_chunk = max(1, _CHUNK_WORDS // (params.n * 5 * params.phase_rounds))
    while chunk := list(islice(seeds, per_chunk)):
        yield (chunk, *draw_batch(chunk, params))


def run_honest_trials(config: SimConfig, seeds: Iterable[int],
                      ) -> Iterator[tuple[Optional[int], Optional[int],
                                          GoodExecutionFlags]]:
    """``(outcome, winner, flags)`` of a coalition-free config at each seed,
    equal to what ``run_trial`` reports at that master seed.

    Without a coalition every certificate is built by the engine from a
    real tally and every ledger entry is a real intention, so verification
    always accepts: the outcome follows from the tickets, find-min and
    coherence alone, and a certificate is identified by its owner. Seeds
    are taken lazily, a chunk at a time; each chunk's draws come from one
    ``draw_batch``, its tickets and tally sizes are computed for the whole
    chunk, and its flags come from ``run_trial``'s classifier in one call
    per chunk. Find-min is ``run_trial``'s serialized loop over (ticket,
    owner) pairs, seed by seed, left as soon as every active agent holds
    the smallest ticket: a pull adopts only a strictly smaller ticket and
    a faulty agent holds m, so later rounds change nothing (``run_trial``
    runs them all, as it counts their messages). Coherence runs only when
    find-min left different owners, and then aborts iff some push in some
    round reaches a live agent holding another owner (until the first
    failure every agent pushes). ``run_trial`` stays the definition;
    tests/test_engine.py compares the two seed by seed.
    """
    if config.coalition is not None:
        raise ConfigError("run_honest_trials takes a coalition-free config")
    params = validate_config(config)
    return _honest_trials(config, params, iter(seeds))


def _honest_trials(config: SimConfig, params: Params, seeds: Iterator[int]):
    n, q, m = params.n, params.phase_rounds, params.modulus
    colors = config.colors
    active = [u for u in range(1, n + 1) if u not in config.faulty]
    act = np.array(active)
    live = np.zeros(n + 1, dtype=bool)
    live[act] = True
    for chunk, values, targets in draw_chunks(seeds, params):
        values, targets = values[:, act], targets[:, act]
        # one bin per (seed, agent); a vote to a faulty receiver is
        # dropped, and its bin is never read
        offsets = (n + 1) * np.arange(len(chunk))[:, None, None]
        size = len(chunk) * (n + 1)
        sizes, sums = _tally((targets[:, :, :q] + offsets).ravel(), values,
                             size, m)
        tallies = sums.reshape(-1, n + 1).tolist()
        sizes = sizes.reshape(-1, n + 1)
        pulls = np.bincount((targets[:, :, q:2 * q] + offsets).ravel(),
                            minlength=size).reshape(-1, n + 1)
        findmin_rows = targets[:, :, 2 * q:3 * q].transpose(0, 2, 1)

        results = []
        for i, held in enumerate(tallies):
            tickets = [held[u] for u in active]
            # find-min: pulls serialized in agent order, ties keep the
            # incumbent; a faulty agent holds ticket m, so pulling it never
            # changes a thing. A pull only adopts a strictly smaller ticket,
            # so once every active agent holds the smallest one the
            # remaining rounds change nothing and are skipped.
            owner = list(range(n + 1))
            for u in config.faulty:
                held[u] = m
            low = min(tickets)
            left = len(tickets) - tickets.count(low)
            for row in findmin_rows[i]:
                if not left:
                    break
                for u, t in zip(active, row.tolist()):
                    if held[t] < held[u]:
                        held[u] = k = held[t]
                        owner[u] = owner[t]
                        if k == low:
                            left -= 1
            holders = [owner[u] for u in active]
            head = holders[0]
            converged = holders.count(head) == len(holders)

            failed = False
            if not converged:
                own = np.array(owner)
                pushed_to = targets[i, :, 3 * q:]
                failed = bool(((own[pushed_to] != own[act][:, None])
                               & live[pushed_to]).any())
            color = colors[head - 1]
            if failed:
                winner = outcome = None
            elif converged:
                winner, outcome = head, color
            else:
                winner = None
                outcome = color if all(colors[o - 1] == color
                                       for o in holders) else None
            results.append((outcome, winner, tickets, converged, failed))

        outcomes, winners, tickets, converged, failed = zip(*results)
        # every active agent is honest and votes as drawn, so the tally
        # sizes are the untainted vote counts too
        flags = _classify(config, act, sizes, pulls, sizes, tickets,
                          converged, failed)
        yield from zip(outcomes, winners, flags)


# --- trace serialization --------------------------------------------------

def _cert_to_list(cert: Certificate) -> list:
    return [cert.ticket, [list(v) for v in cert.votes], cert.color,
            cert.owner]


def fields_dict(obj: Any) -> dict:
    """A dataclass's fields by name, one level deep: `asdict` copies all."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def config_to_dict(config: SimConfig) -> dict:
    """Plain-data form of a config's protocol inputs, which traces and the
    CLI's summaries both write."""
    coalition = config.coalition
    return {"n": config.n, "gamma": config.gamma, "chi": config.chi,
            "num_colors": config.num_colors, "faulty": sorted(config.faulty),
            "coalition": None if coalition is None else {
                "members": list(coalition.members),
                "strategy": coalition.strategy,
                "options": dict(coalition.options)}}


def trace_to_dict(trace: Trace) -> dict:
    """Plain-data form of a trace; stable across runs for a fixed config."""
    cfg = trace.config
    return {
        "config": {**config_to_dict(cfg), "colors": list(cfg.colors),
                   "master_seed": cfg.master_seed},
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
        "flags": fields_dict(trace.flags),
        "stats": {**fields_dict(trace.stats), "by_phase": {
            p: [c, b] for p, c, b in trace.stats.by_phase}},
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


# Field order of the rows `trace_log_records` yields.
LOG_FIELDS = ("round", "kind", "sender", "receiver", "payload_bits")


def trace_log_records(trace: Trace):
    """Line-delimited export: one row per message and per agent state
    transition (entering the failed state, deciding), as a tuple in
    `LOG_FIELDS` order. Round numbers are global (1..4q); the trace must
    have been run with message recording on for the message rows to
    appear. Decision and failure rows have receiver None and payload_bits
    0.
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
