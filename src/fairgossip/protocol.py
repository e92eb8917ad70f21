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
from functools import cache
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

AgentId = int  # 1-based
Color = int    # 1-based; the decision domain is {1, .., num_colors}

#: The value every vote of a voter marked as silent in a ledger must claim.
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
    num_colors: int
    modulus: int
    phase_rounds: int


def derive_params(n: int, gamma: float, chi: float = 1.0,
                  num_colors: int = 2) -> Params:
    """Validate the base inputs and fix the derived constants."""
    if type(n) is not int or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    if n > MAX_AGENTS:
        raise ConfigError(f"n must be below 2**21 so that the modulus n**3 "
                          f"can be drawn, got {n}")
    if isinstance(gamma, bool) or not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma must be positive and finite, got {gamma!r}")
    if isinstance(chi, bool) or not (math.isfinite(chi) and chi >= 0):
        raise ConfigError(f"chi must be non-negative and finite, got {chi!r}")
    if type(num_colors) is not int or num_colors < 1:
        raise ConfigError(f"num_colors must be a positive integer, got {num_colors!r}")
    span = gamma * math.log(n)
    # one seed's (n+1, 4q) int64 target rows must stay below 2**63 bytes,
    # past which numpy cannot even describe the array
    if not math.isfinite(span) or 32 * (n + 1) * math.ceil(span) >= 2 ** 63:
        raise ConfigError(f"gamma {gamma!r} gives too many rounds to draw "
                          f"at n={n}")
    rounds = max(1, math.ceil(span))
    return Params(n=n, num_colors=num_colors, modulus=n ** 3,
                  phase_rounds=rounds)


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
    """One seed's ``draw_batch``: the (n+1, q) values and (n+1, 4q)
    targets of every agent at ``master_seed``."""
    values, targets = draw_batch([master_seed], params)
    return values[0], targets[0]


def draw_batch(seeds: Iterable[int],
               params: Params) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's own draws at each seed, as its derived stream yields
    them.

    Row [i, u] (u in 1..n) of ``values``, shape (S, n+1, q), and of
    ``targets``, shape (S, n+1, 4q), is what ``gen = derive_stream(seeds[i],
    u)`` returns from ``gen.integers(1, modulus + 1, size=q)`` and then
    ``gen.integers(1, n + 1, size=4 * q)``; row 0 is unused. The rows come
    from all (seed, agent) streams at once, stepped as uint64 arrays (see
    ``_lane_words``), and numpy's bounded-integer map. A row that numpy
    would draw differently (a word fell in the map's rejection zone) is
    re-drawn through ``derive_stream`` itself, as is every row when n < 2,
    when ``modulus`` needs more than 32 bits, or when the seed is negative
    (which ``derive_stream`` rejects).
    """
    seeds = list(seeds)
    n, q, m = params.n, params.phase_rounds, params.modulus
    values = np.zeros((len(seeds), n + 1, q), dtype=np.int64)
    targets = np.zeros((len(seeds), n + 1, 4 * q), dtype=np.int64)
    redraw: list[tuple[int, int]] = []
    groups: dict[int, list[int]] = {}
    for i, seed in enumerate(seeds):
        if seed < 0 or n < 2 or m > _U32:
            redraw.extend((i, u) for u in range(1, n + 1))
        else:
            groups.setdefault(_seed_words(seed), []).append(i)
    # numpy's map for a range r < 2**32: w -> (w * r) >> 32, redrawing w
    # while the product's low half is below 2**32 mod r (Lemire 2019),
    # which is never for a power of two. Each word is multiplied by its
    # column's range in one pass into a contiguous uint64 array, which is
    # then mapped in place.
    ranges = np.array([m] * q + [n] * (4 * q), dtype=np.uint64)
    for words, rows in groups.items():
        drawn = _lane_words([seeds[i] for i in rows], words, n, 5 * q)
        prod = np.multiply(drawn.reshape(len(rows), n, 5 * q), ranges)
        rejected = None
        for cols, r in ((slice(None, q), m), (slice(q, None), n)):
            if r & (r - 1):
                hit = ((prod[..., cols] & _LOW32) < (1 << 32) % r).any(axis=2)
                rejected = hit if rejected is None else rejected | hit
        prod >>= _SHIFT32
        prod += np.uint64(1)
        at = slice(None) if len(rows) == len(seeds) else rows
        values[at, 1:] = prod[..., :q]
        targets[at, 1:] = prod[..., q:]
        if rejected is not None:
            redraw.extend((rows[i], u + 1)
                          for i, u in np.argwhere(rejected).tolist())
    for i, u in redraw:
        gen = derive_stream(seeds[i], u)
        values[i, u] = gen.integers(1, m + 1, size=q)
        targets[i, u] = gen.integers(1, n + 1, size=4 * q)
    return values, targets


# numpy.random.SeedSequence's hash constants (a pool of four uint32 words)
# and PCG64's 128-bit LCG multiplier.
_U32 = 0xFFFFFFFF
_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> int:
    """How many uint32 words SeedSequence splits a non-negative int into."""
    return max(1, -(-seed.bit_length() // 32))


@cache
def _hash_constants(init: int, mult: int, rows: tuple[int, ...],
                    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """SeedSequence's hashmix xors with a constant and multiplies by the
    next, which advances by ``mult`` on every call; this returns the
    (xor, multiply) uint32 columns of consecutive ``_hashmix`` steps from
    ``init``, step i making rows[i] calls."""
    seq = [init]
    for _ in range(sum(rows)):
        seq.append(seq[-1] * mult & _U32)
    xor = np.array(seq[:-1], dtype=np.uint32)[:, None]
    mul = np.array(seq[1:], dtype=np.uint32)[:, None]
    xor.flags.writeable = mul.flags.writeable = False
    ends = np.cumsum(rows).tolist()
    return tuple((xor[end - k:end], mul[end - k:end])
                 for k, end in zip(rows, ends))


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """One hashmix call per row of the (k, 1) constant columns, on x
    broadcast against them."""
    x = (x ^ xor) * mul
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_SS_MIX_L) - y * np.uint32(_SS_MIX_R)
    return r ^ (r >> 16)


_SHIFT32, _LOW32 = np.uint64(32), np.uint64(_U32)


class _U128Const(NamedTuple):
    """A column of 128-bit constants as uint64 halves, with the low half
    split again into 32-bit halves for ``_mulhi``."""
    hi: np.ndarray
    lo: np.ndarray
    lo1: np.ndarray
    lo0: np.ndarray

    @classmethod
    def of(cls, values: Sequence[int]) -> "_U128Const":
        hi = np.array([c >> 64 for c in values], dtype=np.uint64)[:, None]
        lo = np.array([c & _U64 for c in values], dtype=np.uint64)[:, None]
        return cls(hi, lo, lo >> _SHIFT32, lo & _LOW32)

    def head(self, rows: int) -> "_U128Const":
        return _U128Const(*(part[:rows] for part in self))


def _mulhi(x: np.ndarray, c1: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """The high uint64 of the 128-bit products x * c, c = c1 << 32 | c0:
    four 32 x 32 -> 64-bit partial products and their carries."""
    x1, x0 = x >> _SHIFT32, x & _LOW32
    cross_a, cross_b = x0 * c1, x1 * c0
    mid = x0 * c0
    mid >>= _SHIFT32
    mid += cross_a & _LOW32
    mid += cross_b & _LOW32
    mid >>= _SHIFT32
    hi = x1 * c1
    cross_a >>= _SHIFT32
    cross_b >>= _SHIFT32
    hi += cross_a
    hi += cross_b
    hi += mid
    return hi


def _mul_add(x_hi: np.ndarray, x_lo: np.ndarray, c: _U128Const,
             y: Optional[tuple[np.ndarray, np.ndarray]] = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """(x * c + y) mod 2**128 on uint64 (high, low) halves; y defaults
    to 0."""
    hi = _mulhi(x_lo, c.lo1, c.lo0)
    hi += x_hi * c.lo
    hi += x_lo * c.hi
    lo = x_lo * c.lo
    if y is not None:
        lo += y[1]
        hi += y[0]
        hi += lo < y[1]
    return hi, lo


def _jump(steps: int) -> tuple[int, int]:
    """PCG64's LCG after ``steps`` steps is s -> a**steps * s + g * inc
    (mod 2**128), g = (a**steps - 1) / (a - 1): this returns (a**steps, g)
    (Brown, "Random Number Generation with Arbitrary Strides", 1994)."""
    mult, g = 1, 0
    for _ in range(steps):
        mult, g = mult * _PCG64_MULT & _U128, (g * _PCG64_MULT + 1) & _U128
    return mult, g


# Outputs are computed a block of J states at a time: the first block
# from each lane's seeding input in one jump per row, each later one from
# the block before in one jump of J steps. J is the largest power of two
# from 8 to _MAX_STRIDE whose block holds at most _BLOCK_NUMBERS states (8
# if none does): one seed's lanes then take few numpy calls, and a batch's
# blocks stay small enough for the cache.
_MAX_STRIDE = 64
_BLOCK_NUMBERS = 1 << 13
_FIRST_MULT, _FIRST_INC = (
    _U128Const.of(c)
    for c in zip(*(_jump(k + 1) for k in range(1, _MAX_STRIDE + 1))))
_STRIDES = {j: tuple(_U128Const.of([c]) for c in _jump(j))
            for j in (8, 16, 32, 64)}


def _lane_words(seeds: Sequence[int], words: int, n: int,
                count: int) -> np.ndarray:
    """The first ``count`` 32-bit words of the derived stream of every
    (seed, agent) lane, as numpy's bounded-integer draws read them (the low
    half of each 64-bit output, then its high half): a (len(seeds) * n,
    count) uint32 array, lane i * n + u - 1 for agent u at seeds[i]. Every
    seed splits into ``words`` uint32 words; agent ids are below 2**32."""
    lanes = len(seeds) * n
    # SeedSequence((seed, u)) hashes the seed's uint32 words, low word
    # first, then u, into the pool, cross-mixes it, and expands it into
    # four uint64 words; each step runs here on a column per lane.
    entropy = np.zeros((max(words + 1, _SS_POOL), lanes), dtype=np.uint32)
    for w in range(words):
        entropy[w] = np.repeat(np.array([s >> 32 * w & _U32 for s in seeds],
                                        dtype=np.uint32), n)
    entropy[words] = np.tile(np.arange(1, n + 1, dtype=np.uint32), len(seeds))
    steps = iter(_hash_constants(
        _SS_INIT_A, _SS_MULT_A,
        (_SS_POOL,) + (_SS_POOL - 1,) * _SS_POOL
        + (_SS_POOL,) * (len(entropy) - _SS_POOL)))
    pool = _hashmix(entropy[:_SS_POOL], *next(steps))
    for src in range(_SS_POOL):
        dst = [d for d in range(_SS_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in entropy[_SS_POOL:]:
        pool = _mix(pool, _hashmix(word, *next(steps)))
    (expand,) = _hash_constants(_SS_INIT_B, _SS_MULT_B, (2 * _SS_POOL,))
    state = _hashmix(np.tile(pool, (2, 1)), *expand).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = state[1::2] << _SHIFT32 | state[0::2]

    # PCG64 seeding sets inc = 2*initseq + 1 and x = inc + initstate, then
    # takes one LCG step, and output k reads the state k steps after that:
    # XSL-RR (the xor of the halves, rotated right by the top six bits;
    # O'Neill, "PCG", 2014) of a**(k+1) * x + g(k+1) * inc. Each 128-bit
    # number is kept as uint64 (high, low) halves.
    inc = (i_hi << np.uint64(1) | i_lo >> np.uint64(63),
           i_lo << np.uint64(1) | np.uint64(1))
    x_lo = inc[1] + s_lo
    x_hi = inc[0] + s_hi + (x_lo < s_lo)
    outputs = (count + 1) // 2
    stride = 8
    while stride < _MAX_STRIDE and 2 * stride * lanes <= _BLOCK_NUMBERS:
        stride *= 2
    rows = min(stride, outputs)
    block = _mul_add(x_hi, x_lo, _FIRST_MULT.head(rows),
                     _mul_add(*inc, _FIRST_INC.head(rows)))
    stride_mult, stride_inc = _STRIDES[stride]
    if outputs > stride:
        stride_inc = _mul_add(*inc, stride_inc)
    raw = np.empty((outputs, lanes), dtype=np.uint64)
    for k in range(0, outputs, stride):
        if k:
            block = _mul_add(*block, stride_mult, stride_inc)
        hi, lo = (h[:outputs - k] for h in block)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        out = raw[k:k + stride]
        np.right_shift(x, rot, out=out)
        np.subtract(np.uint64(64), rot, out=rot)
        rot &= np.uint64(63)
        x <<= rot
        out |= x
    # each 64-bit output is read as its low 32-bit word, then its high one
    words = np.ascontiguousarray(raw.T).astype("<u8", copy=False)
    return words.view("<u4")[:, :count]


def valid_vote(vote: object, params: Params) -> bool:
    """Shape check for one (value, target) pair: a value in [0, m] and an
    agent id."""
    if not isinstance(vote, (tuple, list)) or len(vote) != 2:
        return False
    value, target = vote
    return (type(value) is int and 0 <= value <= params.modulus
            and type(target) is int and 1 <= target <= params.n)


def valid_intention(decl: object, params: Params) -> bool:
    """Shape check for a declared vote list: q in-range (value, target) pairs."""
    return (isinstance(decl, (tuple, list))
            and len(decl) == params.phase_rounds
            and all(valid_vote(pair, params) for pair in decl))


def record_commitment(ledger: dict, voter: AgentId, reply: object,
                      params: Params) -> Optional[tuple]:
    """File a pull answer in ``ledger`` and return what was filed.

    An agent's ledger is a dict: voter id -> the tuple of q (value, target)
    pairs it declared, or None, the no-reply mark, for a voter that failed
    to answer; a mark stands for "all q votes of this voter are 0". A
    missing or malformed reply is indistinguishable from silence to the
    puller, so both file the mark. Re-recording a voter overwrites: an
    honest voter always declares the same list, so for it the operation is
    idempotent.
    """
    filed = None
    if reply is not None and valid_intention(reply, params):
        filed = tuple((int(v), int(t)) for v, t in reply)
    ledger[voter] = filed
    return filed


def vote_sum(votes: Iterable[Sequence[int]], modulus: int) -> int:
    """Sum of vote values mod modulus. An empty tally sums to 0."""
    return sum(map(itemgetter(0), votes)) % modulus


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


_vote_order = itemgetter(1, 2)   # (sender, round_index)


def make_certificate(tally: Iterable[Sequence[int]], color: Color,
                     owner: AgentId, modulus: int) -> Certificate:
    """Build an honest certificate from a received-vote tally."""
    votes = tuple(sorted(map(tuple, tally), key=_vote_order))
    return Certificate(vote_sum(votes, modulus), votes, color, owner)


def certificate_flaw(cert: object, params: Params) -> Optional[str]:
    """Why ``cert`` does not fit the wire format, or None if it does.

    Beyond field ranges this rejects duplicate (sender, round) vote slots:
    at most one vote can be pushed per sender per round, so a list reusing a
    slot claims something no execution could produce.
    """
    if not isinstance(cert, Certificate):
        return "not a certificate"
    if type(cert.ticket) is not int or not 0 <= cert.ticket < params.modulus:
        return "ticket out of range"
    if type(cert.color) is not int or not 1 <= cert.color <= params.num_colors:
        return "color out of range"
    if type(cert.owner) is not int or not 1 <= cert.owner <= params.n:
        return "owner out of range"
    if not isinstance(cert.votes, tuple):
        return "votes not a tuple"
    seen = set()
    for entry in cert.votes:
        if not isinstance(entry, tuple) or len(entry) != 3:
            return "malformed vote entry"
        value, sender, rnd = entry
        if type(value) is not int or not 0 <= value <= params.modulus:
            return "vote value out of range"
        if type(sender) is not int or not 1 <= sender <= params.n:
            return "vote sender out of range"
        if type(rnd) is not int or not 1 <= rnd <= params.phase_rounds:
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


def vote_flaw(entry: Optional[tuple], value: int, rnd: int,
              owner: AgentId) -> Optional[str]:
    """Why a claimed vote ``value`` in round ``rnd`` of a certificate owned
    by ``owner`` contradicts its sender's ledger ``entry``, or None if it
    does not: a None entry (a no-reply mark) needs value 0, and a declared
    list must hold (value, owner) at round ``rnd``."""
    if entry is None:
        return None if value == NO_REPLY_MARK else MARKED_VOTER_NONZERO
    return None if entry[rnd - 1] == (value, owner) else VOTE_MISMATCH


def verify_certificate(cert: Certificate, ledger: Mapping,
                       params: Params) -> VerifyResult:
    """Audit a winning certificate against one agent's own ledger.

    Accepts iff (i) the ticket equals the claimed votes' sum mod modulus and
    (ii) no claimed vote whose sender this agent pulled has a ``vote_flaw``
    against that sender's entry. Votes from senders this agent never pulled
    cannot be cross-checked and pass by default.
    """
    if cert.ticket != vote_sum(cert.votes, params.modulus):
        return VerifyResult(False, None, BAD_CHECKSUM)
    owner = cert.owner
    for value, sender, rnd in cert.votes:
        if sender in ledger:
            flaw = vote_flaw(ledger[sender], value, rnd, owner)
            if flaw:
                return VerifyResult(False, None, flaw)
    return VerifyResult(True, cert.color, None)


def payoff(outcome: Optional[Color], supported: Color, chi: float) -> float:
    """Utility of an agent supporting ``supported``: 1 if its color won,
    -chi if the protocol failed (outcome None), 0 if another color won."""
    if outcome is None:
        return -chi
    return 1.0 if outcome == supported else 0.0
