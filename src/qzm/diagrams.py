"""su(n) Young diagram combinatorics with the spread restriction.

A diagram has at most n-1 weakly decreasing rows.  Its spread is
#rows + #columns = i + m_1, and the NW-corner hook length is m_1 + i - 1,
so spread <= h is the same as maximal hook length <= h - 1.  A diagram is
admissible for h when both the row bound and the spread bound hold; the
empty diagram is included (it labels the vacuum).

Diagrams admissible for h = n + k fit into an (n-1) x (h-1) rectangle; the
ones with m_1 <= k fill the narrower "unitary" (n-1) x k rectangle.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .scalars import UsageError

ROW_OVERFLOW = "row_overflow"
STANDARD_RULE_VIOLATION = "standard_rule_violation"
SPREAD_VIOLATION = "spread_violation"


class YoungDiagram:
    __slots__ = ("n", "parts")

    def __init__(self, n, parts=()):
        parts = tuple(int(m) for m in parts if m)
        if n < 2:
            raise UsageError("need n >= 2")
        if len(parts) > n - 1:
            raise UsageError(f"at most {n - 1} rows allowed for n={n}")
        if any(parts[t] < parts[t + 1] for t in range(len(parts) - 1)):
            raise UsageError("parts must be weakly decreasing")
        if parts and parts[-1] < 1:
            raise UsageError("parts must be positive")
        self.n = n
        self.parts = parts

    def __eq__(self, other):
        return isinstance(other, YoungDiagram) and self.n == other.n and self.parts == other.parts

    def __hash__(self):
        return hash((self.n, self.parts))

    def __repr__(self):
        return f"YoungDiagram(n={self.n}, parts={self.parts})"

    @property
    def rows(self):
        return len(self.parts)

    @property
    def boxes(self):
        return sum(self.parts)

    def row_content(self):
        """Letter counts by row index for the diagonal monomial this labels."""
        c = [0] * self.n
        for t, m in enumerate(self.parts):
            c[t] = m
        return tuple(c)

    def to_record(self, k=None):
        rec = {
            "parts": list(self.parts),
            "boxes": self.boxes,
            "spread": spread(self),
            "max_hook": max_hook(self),
        }
        if k is not None:
            rec["unitary"] = is_unitary(self, k)
        return rec


def spread(y):
    """#rows + #columns; zero for the empty diagram."""
    if not y.parts:
        return 0
    return len(y.parts) + y.parts[0]


def max_hook(y):
    """Hook length of the NW-corner box; zero for the empty diagram."""
    if not y.parts:
        return 0
    return y.parts[0] + len(y.parts) - 1


def is_admissible(y, h):
    return spread(y) <= h


def enumerate_diagrams(n, h):
    """All spread-admissible diagrams, ordered by box count then parts."""
    if n < 2 or h < n + 1:
        raise UsageError("need n >= 2 and h >= n + 1")
    found = [YoungDiagram(n)]

    def descend(prefix, maxpart):
        rows = len(prefix)
        for m in range(1, maxpart + 1):
            parts = prefix + (m,)
            if rows + 1 + parts[0] <= h:
                found.append(YoungDiagram(n, parts))
                if rows + 1 < n - 1:
                    descend(parts, m)

    descend((), h - 1)
    found.sort(key=lambda y: (y.boxes, y.parts))
    return found


def count_diagrams(n, h):
    """Closed form: sum_{i=0}^{n-1} C(h-1, i).

    The bijection behind it: diagrams with exactly i rows and spread <= h
    correspond to partitions inside an i x (h - i - 1) box, shifted by one
    box per row, and those are counted by C(h-1, i).
    """
    if n < 2 or h < n + 1:
        raise UsageError("need n >= 2 and h >= n + 1")
    return sum(comb(h - 1, i) for i in range(n))


def is_unitary(y, k):
    """True when the diagram fits the narrower (n-1) x k rectangle."""
    return not y.parts or y.parts[0] <= k


# kind: "diagram" or a violation label; diagram: the grown YoungDiagram
GrowResult = namedtuple("GrowResult", "kind diagram", defaults=(None,))


def grow(y, j, h):
    """Classify adding one box to row j of an admissible diagram.

    Returns the grown diagram when the result is again admissible, or the
    violated rule: the n-th row, the weakly-decreasing (standard) rule, or
    the spread bound.  Rules are checked in that order.
    """
    n = y.n
    if not 1 <= j <= n:
        raise UsageError(f"row index {j} out of range 1..{n}")
    if j == n:
        return GrowResult(ROW_OVERFLOW)
    parts = list(y.parts) + [0] * (j - len(y.parts))
    parts[j - 1] += 1
    if j >= 2 and parts[j - 1] > parts[j - 2]:
        return GrowResult(STANDARD_RULE_VIOLATION)
    grown = YoungDiagram(n, parts)
    if spread(grown) > h:
        return GrowResult(SPREAD_VIOLATION)
    return GrowResult("diagram", grown)


def render(y):
    """Deterministic ASCII picture; the empty diagram renders as a lone symbol."""
    if not y.parts:
        return "∅"
    return "\n".join("[]" * m for m in y.parts)


def parse(n, text):
    """Inverse of render()."""
    text = text.strip()
    if text == "∅":
        return YoungDiagram(n)
    parts = []
    for line in text.splitlines():
        line = line.strip()
        if len(line) % 2 or line != "[]" * (len(line) // 2):
            raise UsageError(f"not a rendered diagram line: {line!r}")
        parts.append(len(line) // 2)
    return YoungDiagram(n, parts)
