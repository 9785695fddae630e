"""Multi-index helpers for odd coordinates.

A multi-index is a strictly increasing tuple of 1-based positions; the
family used throughout is the even-length subsets of length >= 2.
`merge_sign` gives the sign of the permutation that sorts a concatenation
of multi-indices.
"""

from __future__ import annotations

from itertools import combinations


def even_subsets_pos(q):
    """Even length >= 2."""
    return [I for r in range(2, q + 1, 2) for I in combinations(range(1, q + 1), r)]


def merge_sign(*parts):
    """Concatenate disjoint multi-indices; return (sign, merged) or None if a
    position repeats.  sign is the signature of the sort permutation."""
    seq = [i for part in parts for i in part]
    if len(set(seq)) != len(seq):
        return None
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return (-1 if inversions & 1 else 1), tuple(sorted(seq))
