"""Unit tests for the protocol core: parameters, ledgers, certificates,
verification, and the derived random streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgossip.protocol import (
    BAD_CHECKSUM,
    MARKED_VOTER_NONZERO,
    VOTE_MISMATCH,
    Certificate,
    ConfigError,
    Ledger,
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

P8 = derive_params(8, 3.0)     # q=7, m=512
P4 = derive_params(4, 1.0)     # q=2, m=64


def test_derive_params_values():
    assert (P8.modulus, P8.phase_rounds) == (512, 7)
    assert (P4.modulus, P4.phase_rounds) == (64, 2)
    p64 = derive_params(64, 4.0)
    assert (p64.modulus, p64.phase_rounds) == (262144, 17)
    p1 = derive_params(1, 2.0)
    assert (p1.modulus, p1.phase_rounds) == (1, 1)  # rounds floor at 1
    # the largest n whose modulus n**3 an int64 draw still reaches
    assert derive_params(2**21 - 1, 0.1).modulus == (2**21 - 1) ** 3


def test_derive_params_rejects_bad_input():
    for bad in [(0, 1.0), (-3, 1.0), (8, 0.0), (8, -1.0),
                (8, float("inf")), (8, float("nan")), (2**21, 0.1)]:
        with pytest.raises(ConfigError):
            derive_params(*bad)
    with pytest.raises(ConfigError):
        derive_params(8, 1.0, chi=-0.5)
    with pytest.raises(ConfigError):
        derive_params(8, 1.0, chi=float("inf"))
    with pytest.raises(ConfigError):
        derive_params(8, 1.0, num_colors=0)


def test_vote_sum_frozen():
    assert vote_sum([(3, 1, 1), (5, 2, 1)], 27) == 8
    assert vote_sum([(20, 1, 1), (15, 2, 2)], 27) == 8  # wraps
    assert vote_sum([], 27) == 0
    assert vote_sum([(27, 1, 1)], 27) == 0  # representative of residue zero


def intention(values, targets):
    """An agent's q (value, target) vote pairs: its q values, each with
    the matching one of the first q targets."""
    return tuple(zip(values.tolist(), targets[:len(values)].tolist()))


def test_drawn_intention_frozen_stream():
    # pinned: agent 1 at seed 1234 over n=8, q=7, m=512
    values, targets = draw_agents(1234, P8)
    got = intention(values[1], targets[1])
    assert got == ((91, 8), (76, 1), (414, 6), (206, 8),
                   (484, 7), (30, 2), (476, 3))
    # the same seed replays identically; another agent's row diverges
    again, again_targets = draw_agents(1234, P8)
    assert intention(again[1], again_targets[1]) == got
    assert intention(values[2], targets[2]) != got


def agent_draws(seed, u, params):
    """Agent u's value block and target block from its derived stream."""
    gen = derive_stream(seed, u)
    return (gen.integers(1, params.modulus + 1, size=params.phase_rounds),
            gen.integers(1, params.n + 1, size=4 * params.phase_rounds))


def reference_draws(seed, params):
    """What draw_agents computes, as the loop that defines it: one
    derived stream per agent, a value block then a target block."""
    n, q = params.n, params.phase_rounds
    values = np.zeros((n + 1, q), dtype=np.int64)
    targets = np.zeros((n + 1, 4 * q), dtype=np.int64)
    for u in range(1, n + 1):
        values[u], targets[u] = agent_draws(seed, u, params)
    return values, targets


def assert_same_draws(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 100, 256, 1626])
def test_draw_agents_matches_derived_streams(n):
    # n=1626 is the first n whose modulus needs more than 32 bits
    params = derive_params(n, 2.0)
    assert (params.modulus > 2**32 - 1) == (n == 1626)
    for seed in (0, 1, 1234, 2**32 + 3, 2**64 + 5):
        assert_same_draws(draw_agents(seed, params),
                          reference_draws(seed, params))


@given(st.integers(0, 2**200), st.integers(2, 40), st.sampled_from([0.5, 3.0]))
@settings(max_examples=40, deadline=None)
def test_draw_agents_matches_any_seed(seed, n, gamma):
    # seeds past 2**96 hash more words than SeedSequence's pool holds
    params = derive_params(n, gamma)
    assert_same_draws(draw_agents(seed, params), reference_draws(seed, params))


def test_draw_agents_redraws_rejected_rows(monkeypatch):
    # at n=100 a 32-bit word maps to [1, 10**6] unevenly: numpy redraws it
    # when the product's low half is below 2**32 mod 10**6, and the row
    # then comes from the agent's own stream
    import fairgossip.protocol as protocol
    redrawn = []

    def counting(seed, label):
        redrawn.append((seed, label))
        return derive_stream(seed, label)

    monkeypatch.setattr(protocol, "derive_stream", counting)
    params = derive_params(100, 4.0)
    for seed in range(30):
        assert_same_draws(draw_agents(seed, params),
                          reference_draws(seed, params))
    assert redrawn and len(redrawn) < 30 * 100 // 10
    redrawn.clear()
    draw_agents(0, derive_params(1626, 0.5))   # modulus past 32 bits
    assert len(redrawn) == 1626


def test_draw_agents_rejects_negative_seed():
    with pytest.raises(ValueError):
        draw_agents(-1, P8)


def test_intention_target_frequencies_near_uniform():
    # 4000 intentions x 7 targets = 28000 draws; 4-sigma band ~ 0.008
    counts = [0] * (P8.n + 1)
    total = 0
    for agent in range(1, 4001):
        for _, target in intention(*agent_draws(99, agent, P8)):
            counts[target] += 1
            total += 1
    for target in range(1, P8.n + 1):
        assert abs(counts[target] / total - 1 / P8.n) < 0.01


def test_record_commitment_and_marks():
    ledger = Ledger()
    decl = ((10, 1), (5, 3))
    record_commitment(ledger, 2, decl, P4)
    assert ledger.declarations[2] == ((10, 1), (5, 3))
    assert ledger.faulty_marks == frozenset()

    record_commitment(ledger, 4, None, P4)           # silence
    assert ledger.declarations[4] is None
    assert ledger.faulty_marks == frozenset({4})

    assert 3 not in ledger.declarations              # never pulled

    # a re-pull overwrites: the later answer stands
    record_commitment(ledger, 4, decl, P4)
    assert ledger.declarations[4] == decl
    record_commitment(ledger, 2, None, P4)
    assert ledger.faulty_marks == frozenset({2})


def test_record_commitment_rejects_malformed():
    cases = [
        ((10, 1),),                      # wrong length (q=2)
        ((10, 1), (5,)),                 # bad pair arity
        ((10, 0), (5, 3)),               # target below range
        ((10, 5), (5, 3)),               # target above n
        ((65, 1), (5, 3)),               # value above modulus
        ((-1, 1), (5, 3)),               # negative value
        (("a", 1), (5, 3)),              # non-int value
        "nonsense",
        42,
    ]
    for reply in cases:
        assert not valid_intention(reply, P4)
        ledger = Ledger()
        record_commitment(ledger, 3, reply, P4)
        assert ledger.declarations == {3: None}
    # boundary values 0 and modulus are legal on the wire
    assert valid_intention(((0, 1), (64, 4)), P4)


def test_make_certificate_sorts_and_sums():
    tally = [(5, 3, 2), (10, 1, 1), (60, 3, 1)]
    cert = make_certificate(tally, color=2, owner=1, modulus=64)
    assert cert.votes == ((10, 1, 1), (60, 3, 1), (5, 3, 2))
    assert cert.ticket == 75 % 64 == 11
    assert (cert.color, cert.owner) == (2, 1)
    assert certificate_flaw(cert, P4) is None


def test_certificate_flaw_catches_duplicates_and_ranges():
    ok = Certificate(1, ((1, 2, 1),), 1, 1)
    assert certificate_flaw(ok, P4) is None
    dup = Certificate(2, ((1, 2, 1), (1, 2, 1)), 1, 1)
    assert certificate_flaw(dup, P4) == "duplicate (sender, round) vote"
    assert certificate_flaw(Certificate(64, (), 1, 1), P4) == "ticket out of range"
    assert certificate_flaw(Certificate(0, (), 3, 1), P4) == "color out of range"
    assert certificate_flaw(Certificate(0, (), 1, 5), P4) == "owner out of range"
    assert certificate_flaw(Certificate(0, ((1, 2, 3),), 1, 1), P4) == "vote round out of range"
    assert certificate_flaw("junk", P4) == "not a certificate"


def test_min_certificate_strict_less_keeps_incumbent_on_tie():
    low = Certificate(3, (), 1, 1)
    tie = Certificate(3, (), 2, 2)
    high = Certificate(9, (), 1, 3)
    assert min_certificate(low, high) is low
    assert min_certificate(high, low) is low
    assert min_certificate(low, tie) is low   # tie: incumbent survives
    assert min_certificate(tie, low) is tie


def _ledger_with(entries):
    ledger = Ledger()
    for voter, decl in entries.items():
        record_commitment(ledger, voter, decl, P4)
    return ledger


def test_verify_accepts_consistent_certificate():
    ledger = _ledger_with({2: ((10, 1), (5, 3))})
    cert = Certificate(10, ((10, 2, 1),), 2, 1)
    assert verify_certificate(cert, ledger, P4) == (True, 2, None)


def test_verify_rejects_bad_checksum():
    cert = Certificate(11, ((10, 2, 1),), 1, 1)
    res = verify_certificate(cert, Ledger(), P4)
    assert res == (False, None, BAD_CHECKSUM)


def test_verify_rejects_value_and_target_mismatch():
    ledger = _ledger_with({2: ((10, 1), (5, 3))})
    wrong_value = Certificate(9, ((9, 2, 1),), 1, 1)
    assert verify_certificate(wrong_value, ledger, P4).reason == VOTE_MISMATCH
    # voter 2 aimed round 1 at agent 1, so owner 3 cannot claim that vote
    wrong_target = Certificate(10, ((10, 2, 1),), 1, 3)
    assert verify_certificate(wrong_target, ledger, P4).reason == VOTE_MISMATCH


def test_verify_marked_voter_must_be_zero():
    ledger = _ledger_with({4: None})
    claimed = Certificate(7, ((7, 4, 1),), 1, 1)
    assert verify_certificate(claimed, ledger, P4).reason == MARKED_VOTER_NONZERO
    zeroed = Certificate(0, ((0, 4, 1),), 1, 1)
    assert verify_certificate(zeroed, ledger, P4).accepted


def test_verify_unpulled_senders_pass_by_default():
    # nothing in the ledger about sender 3, so only the checksum binds
    cert = Certificate(12, ((12, 3, 2),), 1, 1)
    assert verify_certificate(cert, Ledger(), P4).accepted


def test_payoff_values():
    assert payoff(1, 1, 0.5) == 1.0
    assert payoff(2, 1, 0.5) == 0.0
    assert payoff(None, 1, 0.5) == -0.5
    assert payoff(None, 2, 0.0) == 0.0


# --- properties ---------------------------------------------------------

vote_entries = st.lists(
    st.tuples(st.integers(0, 511), st.integers(1, 8), st.integers(1, 7)),
    max_size=12)


@given(vote_entries, st.permutations(range(12)))
@settings(max_examples=60)
def test_vote_sum_permutation_invariant(votes, perm):
    shuffled = [votes[i] for i in perm if i < len(votes)]
    assert vote_sum(shuffled, 512) == vote_sum(votes, 512)
    assert 0 <= vote_sum(votes, 512) < 512


@given(st.lists(st.integers(0, 511), min_size=1, max_size=10))
@settings(max_examples=60)
def test_min_certificate_fold_reaches_minimum(tickets):
    certs = [Certificate(t, (), 1, i + 1) for i, t in enumerate(tickets)]
    best = certs[0]
    for cand in certs[1:]:
        best = min_certificate(best, cand)
    assert best.ticket == min(tickets)
    # earliest holder of the minimum survives the fold
    assert best.owner == tickets.index(min(tickets)) + 1


@given(st.integers(0, 2**32 - 1), st.integers(1, 100))
@settings(max_examples=40)
def test_drawn_intentions_are_valid_declarations(seed, agent):
    decl = intention(*agent_draws(seed, agent, P8))
    assert valid_intention(decl, P8)
    assert all(1 <= v <= 512 and 1 <= t <= 8 for v, t in decl)
