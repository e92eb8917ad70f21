"""Coalition deviation strategies.

A strategy controls every externally visible action of the coalition
members through per-phase hooks. Each hook receives the member's view of
its own state plus the action an honest agent would take (``default``);
returning the default verbatim reproduces honest behavior exactly, so the
base class is itself the "no deviation" strategy and any subclass only
overrides the hooks it attacks through.

Hooks may return None where silence / inaction is meaningful (skipping a
pull, not replying, withholding a vote or push). A member acts on the trial
only through what its hooks return: the engine validates each result
against the wire format and raises StrategyError on anything no protocol
message could carry; strategies deviate within the transport, they do not
get a side channel. A result that is the very default object the hook was
given (not an equal copy) is taken as is, since the engine built it and it
is frozen; anything else is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Optional

import numpy as np

from fairgossip.protocol import (
    STRATEGY_STREAM_TAG,
    Certificate,
    ConfigError,
    Params,
    derive_stream,
    vote_sum,
)


class StrategyError(RuntimeError):
    """A strategy returned something no protocol message could carry."""


@dataclass(slots=True)
class MemberView:
    """One coalition member's own state, as visible to its strategy.

    ``chosen_intention`` is what the member actually casts (set after the
    intention hook runs). ``ledger`` is a live, read-only view of the
    ledger the member verifies against, in ``record_commitment``'s format
    (voter -> declared pairs, or None for a no-reply mark), and ``ce_min``
    is its current certificate, kept current by the engine. The engine
    reads none of these fields back.
    """

    id: int
    color: int
    chosen_intention: Optional[tuple] = None
    ledger: Optional[Mapping] = None
    ce_min: Optional[Certificate] = None


@dataclass
class AdversaryContext:
    """Shared coalition state: parameters, the member list, strategy options
    and a random stream of its own, derived from the seed on first read."""

    params: Params
    members: tuple[int, ...]
    options: Mapping[str, Any]
    seed: int

    @cached_property
    def rng(self) -> np.random.Generator:
        return derive_stream(self.seed, STRATEGY_STREAM_TAG)


class DeviationStrategy:
    """Honest baseline: every hook returns the engine-computed default."""

    name = "honest"

    #: option keys accepted by this strategy, for config validation
    option_keys: frozenset[str] = frozenset()

    def __init__(self, ctx: AdversaryContext):
        unknown = set(ctx.options) - set(self.option_keys)
        if unknown:
            raise ConfigError(f"strategy {self.name!r} got unknown options "
                              f"{sorted(unknown, key=str)}")
        self.ctx = ctx

    # -- voting-intention ------------------------------------------------
    def choose_intention(self, view: MemberView, default: tuple) -> tuple:
        """Votes this member will actually cast: q (value, target) pairs."""
        return default

    # -- commitment --------------------------------------------------------
    def choose_commit_target(self, view: MemberView, round_index: int,
                             default: int) -> Optional[int]:
        """Whom to pull this round; None skips the pull entirely."""
        return default

    def reply_to_pull(self, view: MemberView, requester: int,
                      round_index: int, default: tuple) -> Optional[tuple]:
        """Declaration sent to ``requester``; None stays silent (the
        requester will mark this member faulty)."""
        return default

    # -- voting ----------------------------------------------------------
    def choose_vote(self, view: MemberView, round_index: int,
                    default: tuple[int, int]) -> Optional[tuple[int, int]]:
        """(value, target) actually pushed this round; None withholds."""
        return default

    def declare_certificate(self, view: MemberView,
                            default: Certificate) -> Certificate:
        """The certificate this member enters into find-min as its own."""
        return default

    # -- find-min ----------------------------------------------------------
    def choose_findmin_target(self, view: MemberView, round_index: int,
                              default: int) -> Optional[int]:
        return default

    def findmin_reply(self, view: MemberView, requester: int,
                      round_index: int,
                      default: Certificate) -> Optional[Certificate]:
        """Certificate returned to a find-min pull; None stays silent."""
        return default

    # -- coherence ---------------------------------------------------------
    def coherence_push(self, view: MemberView, round_index: int, target: int,
                       default: Optional[Certificate]) -> Optional[Certificate]:
        """Certificate pushed at ``target``; None suppresses the push. The
        default is None once the member has failed (honest quiescence)."""
        return default

    # -- verification ------------------------------------------------------
    def final_decision(self, view: MemberView,
                       default: Optional[int]) -> Optional[int]:
        return default


def _switch(ctx: AdversaryContext, key: str) -> bool:
    """An on/off option, off when absent. Only a YAML boolean sets it: any
    other value would switch the deviation on without meaning to."""
    value = ctx.options.get(key, False)
    if type(value) is not bool:
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


STRATEGIES: dict[str, type[DeviationStrategy]] = {}


def register(cls: type[DeviationStrategy]) -> type[DeviationStrategy]:
    if cls.name in STRATEGIES:
        raise ValueError(f"duplicate strategy name {cls.name!r}")
    STRATEGIES[cls.name] = cls
    return cls


def make_strategy(name: str, ctx: AdversaryContext) -> DeviationStrategy:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}") from None
    return cls(ctx)


register(DeviationStrategy)


@register
class KUnderbid(DeviationStrategy):
    """Claim the winning ticket by doctoring the declared certificate.

    The member keeps its real tally but rewrites the last vote's value so
    the checksum lands on 0, the unbeatable ticket. The checksum still
    verifies; the lie lives in a single vote value, so any agent that pulled
    that vote's sender during commitment catches the mismatch.
    """

    name = "k_underbid"

    def declare_certificate(self, view, default):
        votes = list(default.votes)
        if not votes:
            return default  # nothing to doctor
        m = self.ctx.params.modulus
        value, sender, rnd = votes[-1]
        adjusted = (value - default.ticket) % m
        if adjusted == 0:
            adjusted = m  # representative of residue 0 valid on the wire
        votes[-1] = (adjusted, sender, rnd)
        return Certificate(vote_sum(votes, m), tuple(votes), view.color, view.id)


@register
class CommitmentMismatch(DeviationStrategy):
    """Declare one set of vote values during commitment, push another.

    Replies to pulls carry freshly drawn values (the real ones stay
    secret); the actual votes cast are the member's true intention. With
    ``retarget`` the declared targets are also redrawn; with ``equivocate``
    each requester gets its own independent fake declaration instead of a
    single cached one.
    """

    name = "commitment_mismatch"
    option_keys = frozenset({"retarget", "equivocate"})

    def __init__(self, ctx):
        super().__init__(ctx)
        self.retarget = _switch(ctx, "retarget")
        self.equivocate = _switch(ctx, "equivocate")
        self._fakes: dict = {}

    def _fake_declaration(self, view) -> tuple:
        p = self.ctx.params
        values = self.ctx.rng.integers(1, p.modulus + 1, size=p.phase_rounds)
        if self.retarget:
            targets = self.ctx.rng.integers(1, p.n + 1, size=p.phase_rounds).tolist()
        else:
            targets = [t for _, t in view.chosen_intention]
        return tuple(zip(values.tolist(), targets))

    def reply_to_pull(self, view, requester, round_index, default):
        key = (view.id, requester) if self.equivocate else view.id
        fake = self._fakes.get(key)
        if fake is None:
            fake = self._fakes[key] = self._fake_declaration(view)
        return fake


@register
class FakeFaulty(DeviationStrategy):
    """Impersonate a crashed agent while still casting real votes.

    Members send nothing an observer could attribute to a live agent: no
    pulls, no replies, no certificate traffic. Every peer that pulls them
    marks them faulty, expecting all their votes to be 0 — but the votes
    they push carry real values. With ``silent_voting`` they withhold votes
    too and become genuinely indistinguishable from a crash.
    """

    name = "fake_faulty"
    option_keys = frozenset({"silent_voting"})

    def __init__(self, ctx):
        super().__init__(ctx)
        self.silent_voting = _switch(ctx, "silent_voting")

    def choose_commit_target(self, view, round_index, default):
        return None

    def reply_to_pull(self, view, requester, round_index, default):
        return None

    def choose_vote(self, view, round_index, default):
        return None if self.silent_voting else default

    def choose_findmin_target(self, view, round_index, default):
        return None

    def findmin_reply(self, view, requester, round_index, default):
        return None

    def coherence_push(self, view, round_index, target, default):
        return None


@register
class CoherenceSilence(DeviationStrategy):
    """Starve chosen agents of certificate traffic in the closing phases.

    Members behave honestly through voting, then refuse find-min replies to
    the victims and suppress coherence pushes aimed at them. ``victims``
    lists agent ids; by default every non-member is a victim.
    """

    name = "coherence_silence"
    option_keys = frozenset({"victims"})

    def __init__(self, ctx):
        super().__init__(ctx)
        victims = ctx.options.get("victims")
        if victims is None:
            members = set(ctx.members)
            self.victims = frozenset(
                u for u in range(1, ctx.params.n + 1) if u not in members)
        else:
            if not (isinstance(victims, (list, tuple))
                    and all(type(v) is int for v in victims)):
                raise ConfigError(f"victims: expected a list of agent ids, "
                                  f"got {victims!r}")
            self.victims = frozenset(victims)
            if not all(1 <= v <= ctx.params.n for v in self.victims):
                raise ConfigError("victims outside agent range")

    def findmin_reply(self, view, requester, round_index, default):
        return None if requester in self.victims else default

    def coherence_push(self, view, round_index, target, default):
        return None if target in self.victims else default
