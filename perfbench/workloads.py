"""Seeded input generators for the zcdft benchmark workloads.

A case is the only thing the library receives: (p, u, ts, inverse). Every
generator is driven by one ``random.Random`` seeded from the command line,
so the same seed replays the same cases in the same order. Generators yield
blocks; a run always finishes the block it started, which keeps the mix of
lengths balanced however long the run is.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from random import Random
from typing import Iterator, NamedTuple


class Case(NamedTuple):
    p: int
    u: int
    ts: int
    inverse: bool  # False: DFT, True: unnormalized IDFT


def odd_primes_upto(n: int) -> list[int]:
    """Odd primes <= n by a plain sieve, independent of the library's own."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [k for k in range(3, n + 1, 2) if sieve[k]]


# --- prach ------------------------------------------------------------------
# Why: the LTE/NR PRACH lengths recur across thousands of spectra and each
# spectrum's working set is 2-18 KB, so the interpreted accumulation loop and
# the per-length twiddle table dominate. Any per-length reuse (a twiddle
# cache, say) pays off here and only here.
#
# Every block holds each length a fixed number of times, in seeded order.
# 839, the long-sequence length of LTE and NR formats 0-3, counts twice.
# With four equal shares the median latency would fall on the boundary
# between the 571 and 839 classes, whose latencies overlap, so which side it
# took would follow the draw; weighted this way it lies inside the 839 class.
PRACH_LENGTHS = (139, 571, 839, 1151)
PRACH_SHARES = (1, 1, 2, 1)
PRACH_BLOCK_PER_SHARE = 50


def prach_blocks(rng: Random) -> Iterator[list[Case]]:
    lengths = [
        p for p, share in zip(PRACH_LENGTHS, PRACH_SHARES) for _ in range(share * PRACH_BLOCK_PER_SHARE)
    ]
    while True:
        rng.shuffle(lengths)
        yield [Case(p, rng.randint(1, p - 1), rng.randint(0, p - 1), rng.random() < 0.5) for p in lengths]


# --- large-p ----------------------------------------------------------------
# Why: distinct primes in [2^16, 2^20], so no length ever repeats and no
# per-length reuse is possible. The 1-16 MB table and output exceed the
# per-core L2 but not the shared LLC, so table build, gather and scale weigh
# more than on prach. A cache that helps prach must show no gain here and
# must not raise peak RSS.
#
# Draws are log-uniform but stratified: each block takes one prime from each
# of LARGE_P_STRATA equal slices of [16, 20] in log2, all at the same offset
# into their slice, and successive blocks step that offset by the golden
# ratio from a seeded start. Operation time grows 16x across the range, so
# plain random draws would make the size mix, and with it every time metric,
# vary from seed to seed far more than the code does.
LARGE_P_LOG2 = (16.0, 20.0)
LARGE_P_STRATA = 8
GOLDEN = (math.sqrt(5) - 1) / 2
# The warm-up length is kept out of the draws, so that nothing it leaves
# behind can be reused by a measured operation.
LARGE_P_WARMUP = 65537


def large_p_blocks(rng: Random) -> Iterator[list[Case]]:
    lo, hi = LARGE_P_LOG2
    primes = [q for q in odd_primes_upto(1 << int(hi)) if q >= 1 << int(lo)]
    used = {LARGE_P_WARMUP}
    width = (hi - lo) / LARGE_P_STRATA
    offset = rng.random()
    while True:
        offset = (offset + GOLDEN) % 1.0
        block = []
        for i in range(LARGE_P_STRATA):
            start = bisect_left(primes, int(2.0 ** (lo + (i + offset) * width)))
            j = start
            while j < len(primes) and primes[j] in used:
                j += 1
            if j == len(primes):  # top of the range exhausted: step down instead
                j = start - 1
                while primes[j] in used:
                    j -= 1
            p = primes[j]
            used.add(p)
            block.append(Case(p, rng.randint(1, p - 1), rng.randint(0, p - 1), rng.random() < 0.5))
        rng.shuffle(block)
        yield block


# --- verify -----------------------------------------------------------------
# Why: the acceptance grid (every prime in [5, 199], every root, ts in
# {0, 1, (p-1)/2}, both directions), each case checked inside the operation
# against the O(p^2) Kahan oracle. The oracle takes ~90% of an operation and
# plan's fixed scalar cost outweighs the short loop, so a change that is
# faster at large p but costs more per call shows up here as a loss.
#
# Cases are uniform over the grid, so a prime is drawn with weight p - 1.
# The primes are stratified like large-p's lengths: each block takes the
# primes at VERIFY_BLOCK evenly spaced points of that distribution, at an
# offset that steps by the golden ratio from a seeded start. Every run then
# holds the same mix of lengths, so the median and the tail fall on the same
# primes whatever the seed. Root, shift and direction are drawn uniformly.
VERIFY_PRIMES = tuple(q for q in odd_primes_upto(199) if q >= 5)
VERIFY_BLOCK = 64


def verify_grid() -> list[Case]:
    return [
        Case(p, u, ts, inverse)
        for p in VERIFY_PRIMES
        for u in range(1, p)
        for ts in (0, 1, (p - 1) // 2)
        for inverse in (False, True)
    ]


def verify_blocks(rng: Random) -> Iterator[list[Case]]:
    ends = list(accumulate(p - 1 for p in VERIFY_PRIMES))
    offset = rng.random()
    while True:
        offset = (offset + GOLDEN) % 1.0
        block = []
        for i in range(VERIFY_BLOCK):
            p = VERIFY_PRIMES[bisect_right(ends, (i + offset) / VERIFY_BLOCK * ends[-1])]
            block.append(Case(p, rng.randint(1, p - 1), rng.choice((0, 1, (p - 1) // 2)), rng.random() < 0.5))
        rng.shuffle(block)
        yield block


GENERATORS = {"prach": prach_blocks, "large-p": large_p_blocks, "verify": verify_blocks}

# One fixed case per workload for warm-up and for the set-up probe. It is
# not drawn from the seed, so set-up time does not depend on it.
WARMUP_CASE = {
    "prach": Case(839, 25, 0, False),
    "large-p": Case(LARGE_P_WARMUP, 3, 0, False),
    "verify": Case(199, 25, 1, False),
}
