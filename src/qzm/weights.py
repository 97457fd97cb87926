"""Shifted su(n) weights and the antisymmetric symbol.

A state made of words with row counts cnt (cnt[r - 1] letters of row r)
has the shifted weights p_r = -r + cnt[r - 1]: the vacuum has p_r = -r,
and each generator of row r raises p_r by one.  Only differences are
meaningful, so a weight is never stored: ``p_diff`` reads p_i - p_j off
the row counts.  The barred generators shift their (barred) weights the
same way, so this serves both factors of a tensor state.
"""

from __future__ import annotations


def p_diff(cnt, i, j):
    """p_i - p_j, 1-based rows, for the row counts ``cnt``."""
    return (j - i) + cnt[i - 1] - cnt[j - 1]


def epsilon(a, b):
    """The antisymmetric symbol: +1 for a > b, -1 for a < b, 0 on the diagonal."""
    if a > b:
        return 1
    if a < b:
        return -1
    return 0
