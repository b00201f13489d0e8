"""Two-way diff: LCS optimality, alignment invariants, boundary shifting."""

import itertools
import random

import pytest

from sesame.textdiff import Alignment, diff2, lcs_matches

ALPHA = [b"a", b"b", b"c"]


def lcs_length(a, b):
    """Independent dynamic-programming oracle."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


def assert_valid_alignment(a, b, alignment: Alignment):
    left_seen = [i for i, _ in alignment.pairs if i is not None]
    right_seen = [j for _, j in alignment.pairs if j is not None]
    assert left_seen == list(range(len(a)))
    assert right_seen == list(range(len(b)))
    prev = (-1, -1)
    for i, j in alignment.matches():
        assert a[i] == b[j]
        assert i > prev[0] and j > prev[1]
        prev = (i, j)


def test_empty_sequences():
    al = diff2([], [])
    assert al.pairs == ()
    assert al.match_count() == 0


def test_identity_single():
    al = diff2([b"x"], [b"x"])
    assert al.matches() == [(0, 0)]


def test_known_subsequence():
    # brute-force over all subsequences of both inputs gives LCS 2: a, c
    a = [b"a", b"b", b"c"]
    b = [b"a", b"c"]
    al = diff2(a, b)
    assert al.match_count() == 2
    assert [a[i] for i, _ in al.matches()] == [b"a", b"c"]


def test_exhaustive_optimality_small():
    for la in range(0, 5):
        for lb in range(0, 5):
            for a in itertools.product(ALPHA, repeat=la):
                for b in itertools.product(ALPHA, repeat=lb):
                    al = diff2(list(a), list(b))
                    assert al.match_count() == lcs_length(a, b)
                    assert_valid_alignment(a, b, al)


def test_randomized_optimality_longer():
    rng = random.Random(20240817)
    for _ in range(3000):
        a = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 16))]
        b = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 16))]
        al = diff2(a, b)
        assert al.match_count() == lcs_length(a, b), (a, b)
        assert_valid_alignment(a, b, al)


def test_determinism():
    rng = random.Random(5)
    for _ in range(200):
        a = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 12))]
        b = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 12))]
        assert diff2(a, b) == diff2(a, b)


def test_insertion_settles_at_latest_position():
    # appending a duplicate line reports the insertion at the end
    al = diff2([b"x"], [b"x", b"x"])
    assert al.matches() == [(0, 0)]
    al = diff2([b"x", b"y"], [b"x", b"x", b"y"])
    assert al.matches() == [(0, 0), (1, 2)]


def test_insertion_merges_with_adjacent_change():
    # the inserted group slides up through the equal '(' line and fuses
    # with the .b -> .g change, keeping the inner (c) matched
    ph = b"$" * 8
    base = [b"a"] + [ph + t for t in (b"(", b")", b".b", b"(", b"c", b")", b".d", b"(", b")", b";")]
    right = [b"a"] + [
        ph + t
        for t in (b"(", b")", b".g", b"(", b"h", b"(", b"c", b")", b")", b".d", b"(", b")", b";")
    ]
    al = diff2(base, right)
    assert al.matches() == [
        (0, 0), (1, 1), (2, 2), (4, 6), (5, 7), (6, 8),
        (7, 10), (8, 11), (9, 12), (10, 13),
    ]


def test_lcs_matches_handles_degenerate_inputs():
    assert lcs_matches([], [b"a"]) == []
    assert lcs_matches([b"a"], []) == []
    assert lcs_matches([b"a", b"a"], [b"a", b"a"]) == [(0, 0), (1, 1)]
