"""Core data types and per-agent operations for the gossip consensus protocol.

The protocol elects a single proposal ("color") among n agents on a complete
graph. Between two local phases there are four networked phases of q rounds
each:

  voting-intention   each agent draws q (value, target) vote pairs (local)
  commitment         agents pull each other's intended votes into ledgers
  voting             agents push their vote values to the drawn targets
  find-min           agents pull certificates, keeping the smallest ticket
  coherence          agents push the winning certificate; conflicts abort
  verification       each agent audits the winner against its ledger (local)

Vote values are uniform residues mod ``modulus`` drawn as representatives in
[1, modulus]; the value 0 is reserved for marking voters that did not answer
a pull, so "all votes zero" is an unambiguous statement about a silent peer.

Everything in this module is a pure function or a small per-agent record.
Scheduling, message delivery and fault injection live in ``engine``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

AgentId = int  # 1-based
Color = int    # 1-based; the decision domain is {1, .., num_colors}

#: Ledger value standing in for every vote of a voter that failed to answer.
NO_REPLY_MARK = 0

# Derived-stream tags for non-agent draws. Agent streams use the agent id
# itself, so tags must sit far outside any valid id range.
FAULT_STREAM_TAG = 0x6661756C74       # "fault"
STRATEGY_STREAM_TAG = 0x73747261      # "stra"


#: Largest agent count: vote values are drawn from [1, n**3] by an int64
#: generator, so n**3 + 1 may not pass 2**63.
MAX_AGENTS = 2 ** 21 - 1


class ConfigError(ValueError):
    """Raised for structurally invalid protocol or experiment configuration."""


@dataclass(frozen=True, slots=True)
class Params:
    """Protocol parameters shared by every agent.

    ``modulus`` is n**3 and ``phase_rounds`` is max(1, ceil(gamma * ln n)):
    each networked phase runs for ``phase_rounds`` rounds, so a full run
    takes 4 * phase_rounds rounds on the wire.
    """

    n: int
    gamma: float
    chi: float
    num_colors: int
    modulus: int
    phase_rounds: int


def derive_params(n: int, gamma: float, chi: float = 1.0,
                  num_colors: int = 2) -> Params:
    """Validate the base inputs and fix the derived constants."""
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    if n > MAX_AGENTS:
        raise ConfigError(f"n must be below 2**21 so that the modulus n**3 "
                          f"can be drawn, got {n}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma must be positive and finite, got {gamma!r}")
    if not (math.isfinite(chi) and chi >= 0):
        raise ConfigError(f"chi must be non-negative and finite, got {chi!r}")
    if not isinstance(num_colors, int) or num_colors < 1:
        raise ConfigError(f"num_colors must be a positive integer, got {num_colors!r}")
    rounds = max(1, math.ceil(gamma * math.log(n)))
    return Params(n=n, gamma=float(gamma), chi=float(chi),
                  num_colors=num_colors, modulus=n ** 3, phase_rounds=rounds)


def derive_stream(master_seed: int, label: int) -> np.random.Generator:
    """Deterministic, independent random stream for (master seed, label).

    Agents use their own id as label; auxiliary draws (fault sampling,
    strategy randomness) use the fixed tags above. Per-phase draws are taken
    from an agent's stream in fixed-size blocks in phase order, so every
    draw is a pure function of (seed, label, phase, position) and is
    unaffected by what any other agent does.
    """
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((master_seed, label))))


def draw_agents(master_seed: int,
                params: Params) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's own draws, as its derived stream yields them.

    Row u (1..n) of ``values``, shape (n+1, q), and of ``targets``, shape
    (n+1, 4q), is what ``gen = derive_stream(master_seed, u)`` returns from
    ``gen.integers(1, modulus + 1, size=q)`` and then
    ``gen.integers(1, n + 1, size=4 * q)``; row 0 is unused. The rows are
    computed for all agents at once from the same PCG64 streams and numpy's
    bounded-integer map; a row that numpy would draw differently (a word
    fell in the map's rejection zone) is re-drawn through ``derive_stream``
    itself, as is every row when n < 2, when ``modulus`` needs more than 32
    bits, or when the seed is negative (which ``derive_stream`` rejects).
    """
    n, q, m = params.n, params.phase_rounds, params.modulus
    values = np.zeros((n + 1, q), dtype=np.int64)
    targets = np.zeros((n + 1, 4 * q), dtype=np.int64)
    if master_seed < 0 or n < 2 or m > _U32:
        redraw: Iterable[int] = range(1, n + 1)
    else:
        words = _agent_stream_words(master_seed, n, 5 * q)
        # numpy's map for a range r < 2**32: w -> (w * r) >> 32, redrawing
        # w while the product's low half is below 2**32 mod r (Lemire 2019)
        v = words[:, :q] * np.uint64(m)
        t = words[:, q:] * np.uint64(n)
        values[1:] = (v >> 32) + 1
        targets[1:] = (t >> 32) + 1
        rejected = (((v & _U32) < (1 << 32) % m).any(axis=1)
                    | ((t & _U32) < (1 << 32) % n).any(axis=1))
        redraw = (np.flatnonzero(rejected) + 1).tolist()
    for u in redraw:
        gen = derive_stream(master_seed, u)
        values[u] = gen.integers(1, m + 1, size=q)
        targets[u] = gen.integers(1, n + 1, size=4 * q)
    return values, targets


# numpy.random.SeedSequence's hash constants (a pool of four uint32 words)
# and PCG64's 128-bit LCG multiplier.
_U32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_stream(init: int, mult: int):
    """SeedSequence's hashmix, whose constant advances by ``mult`` on every
    call: ``hashmix(x, k)`` makes the next k calls, one per row of the
    (k, ...) result, on x broadcast against a (k, 1) column."""
    const = init

    def hashmix(x: np.ndarray, k: int) -> np.ndarray:
        nonlocal const
        seq = [const]
        for _ in range(k):
            seq.append(seq[-1] * mult & _U32)
        const = seq[-1]
        x = ((x ^ np.array(seq[:-1], dtype=np.uint32)[:, None])
             * np.array(seq[1:], dtype=np.uint32)[:, None])
        return x ^ (x >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_SS_MIX_L) - y * np.uint32(_SS_MIX_R)
    return r ^ (r >> 16)


def _agent_stream_words(master_seed: int, n: int, count: int) -> np.ndarray:
    """The first ``count`` 32-bit words of each agent's derived stream, as
    numpy's bounded-integer draws read them (the low half of each 64-bit
    output, then its high half): a (n, count) uint64 array for agents
    1..n. Needs a non-negative seed and agent ids below 2**32."""
    # SeedSequence((master_seed, u)) hashes the seed's uint32 words, low
    # word first, then u, into the pool, cross-mixes it, and expands it
    # into four uint64 words; each step runs here on a column per agent.
    seed_words = []
    while True:
        seed_words.append(master_seed & _U32)
        master_seed >>= 32
        if not master_seed:
            break
    entropy = np.zeros((max(len(seed_words) + 1, _SS_POOL), n),
                       dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = np.arange(1, n + 1, dtype=np.uint32)
    hashmix = _hash_stream(_SS_INIT_A, _SS_MULT_A)
    pool = hashmix(entropy[:_SS_POOL], _SS_POOL)
    for src in range(_SS_POOL):
        dst = [d for d in range(_SS_POOL) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in entropy[_SS_POOL:]:
        pool = _mix(pool, hashmix(word, _SS_POOL))
    state = _hash_stream(_SS_INIT_B, _SS_MULT_B)(
        np.tile(pool, (2, 1)), 2 * _SS_POOL).astype(np.uint64)
    seed64 = (state[1::2] << 32 | state[0::2]).tolist()

    # PCG64 seeding: inc = 2*initseq + 1, then two LCG steps around adding
    # initstate; the seeded state goes on one reused bit generator.
    bitgen = np.random.PCG64(0)
    inner = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": inner,
               "has_uint32": 0, "uinteger": 0}
    blocks = []
    for s_hi, s_lo, i_hi, i_lo in zip(*seed64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _U128
        inner["inc"] = inc
        inner["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT
                          + inc) & _U128
        bitgen.state = setting
        blocks.append(bitgen.random_raw((count + 1) // 2))
    raw = np.stack(blocks)
    return np.stack((raw & _U32, raw >> 32), axis=-1).reshape(n, -1)[:, :count]


def valid_intention(decl: object, params: Params) -> bool:
    """Shape check for a declared vote list: q in-range (value, target) pairs."""
    if not isinstance(decl, (tuple, list)) or len(decl) != params.phase_rounds:
        return False
    m, n = params.modulus, params.n
    for pair in decl:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            return False
        value, target = pair
        if not isinstance(value, int) or not 0 <= value <= m:
            return False
        if not isinstance(target, int) or not 1 <= target <= n:
            return False
    return True


class Ledger:
    """One agent's record of everybody who answered (or ignored) its pulls.

    ``declarations`` maps voter id -> tuple of q (value, target) pairs, or
    None for a voter that failed to answer; a None entry stands for "all q
    votes of this voter are 0". Re-recording a voter overwrites: an honest
    voter always declares the same list, so for it the operation is
    idempotent.
    """

    __slots__ = ("declarations",)

    def __init__(self) -> None:
        self.declarations: dict[int, Optional[tuple]] = {}

    @property
    def faulty_marks(self) -> frozenset[AgentId]:
        return frozenset(v for v, d in self.declarations.items() if d is None)


_UNSEEN = object()


def record_commitment(ledger: Ledger, voter: AgentId, reply: object,
                      params: Params) -> None:
    """File a pull answer: a declared vote list, or a no-reply mark.

    A missing or malformed reply is indistinguishable from silence to the
    puller, so both record the mark.
    """
    if reply is not None and valid_intention(reply, params):
        ledger.declarations[voter] = tuple((int(v), int(t)) for v, t in reply)
    else:
        ledger.declarations[voter] = None


def vote_sum(votes: Iterable[Sequence[int]], modulus: int) -> int:
    """Sum of vote values mod modulus. An empty tally sums to 0."""
    return sum(v[0] for v in votes) % modulus


@dataclass(frozen=True, slots=True)
class Certificate:
    """A claim "agent ``owner`` with proposal ``color`` drew ``ticket``".

    ``votes`` is the claimed tally backing the ticket: (value, sender,
    round_index) triples sorted by (sender, round_index). The agent holding
    the smallest ticket after find-min wins, so certificates are compared by
    ticket and otherwise treated as opaque, equal-or-not blobs.
    """

    ticket: int
    votes: tuple[tuple[int, int, int], ...]
    color: Color
    owner: AgentId


def _vote_order(entry: Sequence[int]) -> tuple[int, int]:
    return (entry[1], entry[2])


def make_certificate(tally: Iterable[Sequence[int]], color: Color,
                     owner: AgentId, modulus: int) -> Certificate:
    """Build an honest certificate from a received-vote tally."""
    votes = tuple(sorted((tuple(v) for v in tally), key=_vote_order))
    return Certificate(vote_sum(votes, modulus), votes, color, owner)


def certificate_flaw(cert: object, params: Params) -> Optional[str]:
    """Why ``cert`` does not fit the wire format, or None if it does.

    Beyond field ranges this rejects duplicate (sender, round) vote slots:
    at most one vote can be pushed per sender per round, so a list reusing a
    slot claims something no execution could produce.
    """
    if not isinstance(cert, Certificate):
        return "not a certificate"
    if not isinstance(cert.ticket, int) or not 0 <= cert.ticket < params.modulus:
        return "ticket out of range"
    if not isinstance(cert.color, int) or not 1 <= cert.color <= params.num_colors:
        return "color out of range"
    if not isinstance(cert.owner, int) or not 1 <= cert.owner <= params.n:
        return "owner out of range"
    if not isinstance(cert.votes, tuple):
        return "votes not a tuple"
    seen = set()
    for entry in cert.votes:
        if not isinstance(entry, tuple) or len(entry) != 3:
            return "malformed vote entry"
        value, sender, rnd = entry
        if not isinstance(value, int) or not 0 <= value <= params.modulus:
            return "vote value out of range"
        if not isinstance(sender, int) or not 1 <= sender <= params.n:
            return "vote sender out of range"
        if not isinstance(rnd, int) or not 1 <= rnd <= params.phase_rounds:
            return "vote round out of range"
        slot = (sender, rnd)
        if slot in seen:
            return "duplicate (sender, round) vote"
        seen.add(slot)
    return None


def min_certificate(incumbent: Certificate, candidate: Certificate) -> Certificate:
    """Keep the certificate with the strictly smaller ticket; ties keep the
    incumbent."""
    return candidate if candidate.ticket < incumbent.ticket else incumbent


class VerifyResult(NamedTuple):
    accepted: bool
    color: Optional[Color]
    reason: Optional[str]


BAD_CHECKSUM = "bad_checksum"
VOTE_MISMATCH = "vote_mismatch"
MARKED_VOTER_NONZERO = "marked_voter_nonzero"


def verify_certificate(cert: Certificate, ledger: Ledger,
                       params: Params) -> VerifyResult:
    """Audit a winning certificate against one agent's own ledger.

    Accepts iff (i) the ticket equals the claimed votes' sum mod modulus and
    (ii) every claimed vote whose sender this agent pulled matches what that
    sender declared: the declared target must be the certificate owner and
    the declared value must equal the claimed value; a vote attributed to a
    marked (silent) voter must be 0. Votes from senders this agent never
    pulled cannot be cross-checked and pass by default.
    """
    if cert.ticket != vote_sum(cert.votes, params.modulus):
        return VerifyResult(False, None, BAD_CHECKSUM)
    declarations = ledger.declarations
    owner = cert.owner
    for value, sender, rnd in cert.votes:
        decl = declarations.get(sender, _UNSEEN)
        if decl is _UNSEEN:
            continue
        if decl is None:
            if value != NO_REPLY_MARK:
                return VerifyResult(False, None, MARKED_VOTER_NONZERO)
            continue
        declared_value, declared_target = decl[rnd - 1]
        if declared_target != owner or declared_value != value:
            return VerifyResult(False, None, VOTE_MISMATCH)
    return VerifyResult(True, cert.color, None)


def payoff(outcome: Optional[Color], supported: Color, chi: float) -> float:
    """Utility of an agent supporting ``supported``: 1 if its color won,
    -chi if the protocol failed (outcome None), 0 if another color won."""
    if outcome is None:
        return -chi
    return 1.0 if outcome == supported else 0.0
