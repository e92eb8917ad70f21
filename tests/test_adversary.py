"""Deviation strategy tests: hook-level behavior of each built-in attack
and the engine-level consequences (audits catching lies, aborts, silence
equivalences)."""

import pytest

from fairgossip.adversary import (
    STRATEGIES,
    AdversaryContext,
    CommitmentMismatch,
    DeviationStrategy,
    MemberView,
    register,
)
from fairgossip.engine import CoalitionConfig, SimConfig, run_trial
from fairgossip.protocol import (
    STRATEGY_STREAM_TAG,
    ConfigError,
    derive_params,
    derive_stream,
    valid_intention,
)

HALF = tuple([1] * 8 + [2] * 8)


def run16(seed, coalition=None, **kw):
    return run_trial(SimConfig(n=16, gamma=2.0, colors=HALF,
                               master_seed=seed, coalition=coalition, **kw))


def coalition(members, strategy, **options):
    return CoalitionConfig(members=tuple(members), strategy=strategy,
                           options=options)


def test_builtin_registry():
    assert {"honest", "k_underbid", "commitment_mismatch", "fake_faulty",
            "coherence_silence"} <= set(STRATEGIES)
    assert STRATEGIES["honest"] is DeviationStrategy


def test_duplicate_strategy_name_rejected():
    class Again(DeviationStrategy):
        name = "k_underbid"

    with pytest.raises(ValueError, match="duplicate strategy name"):
        register(Again)
    assert STRATEGIES["k_underbid"] is not Again


def test_unknown_option_rejected():
    with pytest.raises(ConfigError):
        run16(0, coalition([5], "k_underbid", zeal=3))
    with pytest.raises(ConfigError):
        run16(0, coalition([5], "coherence_silence", victims=[99]))


# --- k_underbid -----------------------------------------------------------

def test_k_underbid_always_caught():
    aborts = 0
    adopted = 0
    for s in range(60):
        t = run16(s, coalition([5], "k_underbid"))
        aborts += t.outcome is None
        honest_holders = {t.cert_min[u].owner for u in t.tickets if u != 5}
        if honest_holders == {5}:
            adopted += 1
            assert all(t.cert_min[u].ticket == 0 for u in t.tickets
                       if u != 5)
    assert aborts == 60          # the doctored vote never survives audit
    assert adopted == 48         # ... even though the cert usually wins


def test_k_underbid_cert_shape():
    t = run16(0, coalition([5], "k_underbid"))
    cert = next(t.cert_min[u] for u in t.tickets if u != 5
                if t.cert_min[u].owner == 5)
    assert cert.ticket == 0
    assert len(cert.votes) == t.tally_sizes[5]  # same tally, one value bent
    # checksum still verifies: the lie is in the vote value, not the sum
    assert sum(v for v, _, _ in cert.votes) % t.params.modulus == 0


# --- commitment_mismatch ---------------------------------------------------

def test_commitment_mismatch_unchanged_or_abort():
    same = aborted = 0
    for s in range(40):
        base = run16(s)
        dev = run16(s, coalition([5], "commitment_mismatch"))
        # actual votes are untouched, so the race itself is identical
        assert dev.tickets == base.tickets
        assert dev.winner == base.winner
        assert dev.outcome in (base.outcome, None)
        if dev.outcome is not None and dev.outcome == base.outcome:
            same += 1
        elif dev.outcome is None and base.outcome is not None:
            aborted += 1
    assert (same, aborted) == (23, 12)


def _mismatch_ctx(**options):
    params = derive_params(16, 2.0)
    ctx = AdversaryContext(params=params, members=(5,), options=options,
                           seed=0)
    q = params.phase_rounds
    view = MemberView(id=5, color=1)
    view.chosen_intention = tuple((100 + j, (j % 16) + 1)
                                  for j in range(1, q + 1))
    return CommitmentMismatch(ctx), view, params


def test_strategy_stream_is_derived_once_on_first_read(monkeypatch):
    import fairgossip.adversary as adversary

    labels = []

    def counting(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    monkeypatch.setattr(adversary, "derive_stream", counting)
    run16(3, CoalitionConfig(members=(2, 9), strategy="k_underbid"))
    assert labels == []                         # k_underbid never reads it
    strat = _mismatch_ctx()[0]
    assert labels == []
    rng = strat.ctx.rng
    assert strat.ctx.rng is rng and labels == [STRATEGY_STREAM_TAG]
    assert (rng.integers(1 << 30, size=4).tolist()
            == derive_stream(0, STRATEGY_STREAM_TAG).integers(
                1 << 30, size=4).tolist())


def test_mismatch_fake_is_cached_and_valid():
    strat, view, params = _mismatch_ctx()
    first = strat.reply_to_pull(view, 2, 1, view.chosen_intention)
    again = strat.reply_to_pull(view, 9, 4, view.chosen_intention)
    assert first == again                       # one lie for everyone
    assert valid_intention(first, params)
    assert first != view.chosen_intention       # values redrawn
    assert [t for _, t in first] == [t for _, t in view.chosen_intention]


def test_mismatch_equivocate_per_requester():
    strat, view, params = _mismatch_ctx(equivocate=True)
    to_2 = strat.reply_to_pull(view, 2, 1, view.chosen_intention)
    to_9 = strat.reply_to_pull(view, 9, 1, view.chosen_intention)
    assert to_2 != to_9                         # different lies
    assert strat.reply_to_pull(view, 2, 5, view.chosen_intention) == to_2
    assert valid_intention(to_2, params) and valid_intention(to_9, params)


def test_mismatch_retarget_redraws_targets():
    strat, view, params = _mismatch_ctx(retarget=True)
    fake = strat.reply_to_pull(view, 2, 1, view.chosen_intention)
    assert valid_intention(fake, params)
    assert [t for _, t in fake] != [t for _, t in view.chosen_intention]


# --- fake_faulty ------------------------------------------------------------

def test_fake_faulty_is_marked_and_votes_anyway():
    t = run16(1, coalition([5], "fake_faulty"))
    # everyone who pulled 5 marked it
    assert any(5 in marks for marks in t.faulty_marks.values())
    sender_kinds = {m[4] for m in t.messages if m[2] == 5}
    assert sender_kinds == {"vote_push"}        # votes are its only traffic
    assert any(s == 5 for _, s, _, _ in t.votes)


def test_fake_faulty_abort_rate_frozen():
    aborts = sum(run16(s, coalition([5], "fake_faulty")).outcome is None
                 for s in range(30))
    assert aborts == 13  # aborts exactly when its vote lands in the winner


def test_fake_faulty_silent_equals_genuine_crash():
    for s in range(20):
        silent = run16(s, coalition([5], "fake_faulty", silent_voting=True))
        genuine = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF,
                                      master_seed=s,
                                      faulty=frozenset({5})))
        assert silent.messages == genuine.messages
        assert silent.votes == genuine.votes
        assert silent.winner == genuine.winner
        assert silent.outcome == genuine.outcome
        assert all(m[2] != 5 for m in silent.messages)


# --- coherence_silence ------------------------------------------------------

def test_coherence_silence_member_never_wins():
    for s in range(60):
        t = run16(s, coalition([5], "coherence_silence"))
        assert t.winner != 5  # its certificate never leaves the building
        silent_kinds = {m[4] for m in t.messages if m[2] == 5
                        and m[0] in ("find_min", "coherence")}
        assert silent_kinds <= {"pull_request"}


def test_coherence_silence_victim_subset_respected():
    t = run16(3, coalition([5, 6], "coherence_silence", victims=[1, 2]))
    for _, _, sender, receiver, kind, _ in t.messages:
        if sender in (5, 6) and kind in ("cert_reply", "cert_push"):
            assert receiver not in (1, 2)


@register
class _FaultyFromFindMin(DeviationStrategy):
    """Honest through voting, dead afterwards: the fault pattern that
    total coherence silence should be equivalent to."""

    name = "_test_faulty_from_findmin"

    def choose_findmin_target(self, view, round_index, default):
        return None

    def findmin_reply(self, view, requester, round_index, default):
        return None

    def coherence_push(self, view, round_index, target, default):
        return None

    def final_decision(self, view, default):
        return None


def test_total_silence_equals_late_crash():
    # total silence differs from a find-min-onward crash only by the
    # member's own (state-free) pull requests, so honest results match
    for s in range(15):
        silent = run16(s, coalition([5], "coherence_silence"))
        crashed = run16(s, coalition([5], "_test_faulty_from_findmin"))
        assert silent.winner == crashed.winner
        assert silent.outcome == crashed.outcome
        assert {u: c for u, c in silent.cert_min.items() if u != 5} == \
               {u: c for u, c in crashed.cert_min.items() if u != 5}


def test_empty_victim_set_is_honest():
    for s in range(3):
        base = run16(s)
        dev = run16(s, coalition([5], "coherence_silence", victims=[]))
        assert dev.messages == base.messages
        assert (dev.winner, dev.outcome) == (base.winner, base.outcome)
