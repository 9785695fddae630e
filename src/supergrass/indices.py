"""Multi-index helpers for odd coordinates.

A multi-index is a strictly increasing tuple of 1-based positions; the
family used throughout is the even-length subsets of length >= 2.
"""

from __future__ import annotations

from itertools import combinations


def even_subsets_pos(q):
    """Even length >= 2."""
    return [I for r in range(2, q + 1, 2) for I in combinations(range(1, q + 1), r)]
