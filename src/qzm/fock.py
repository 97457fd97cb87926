"""Chiral Fock-module words, states and relation instances.

A generator letter carries a row index i and a flavor index alpha, both in
1..n.  Words are byte strings of letter codes (i-1)*n + (alpha-1); the
leftmost byte is the leftmost operator factor, so the rightmost byte acts
first on the vacuum.  A ``State`` is a sparse map to Scalars from words, or
from (word, barred word) pairs on the tensor square.

The barred generators satisfy relations of exactly the same shape in
(row, flavor) terms -- same exchange templates, same vacuum conditions,
same determinant contraction pattern, with the barred weights shifting the
same way -- so barred words are words too, the second word of a pair
key, and one set of templates serves both.

Relation templates, with all weight dependence evaluated on the suffix the
instance acts on:

  R1 (rows differ, flavors differ):
      a^j_b a^i_a [p_ij - 1] - a^i_a a^j_b [p_ij] + a^i_b a^j_a q^{eps_ab p_ij}
  R2 (rows differ, same flavor):   a^j_a a^i_a - a^i_a a^j_a
  R3 (same row, flavors differ):   a^i_a a^i_b - q^{eps_ab} a^i_b a^i_a
  R4 (root mode only):             (a^i_a)^h
  R5 (determinant, [n]!-cleared):  sum over row and flavor permutations of
      eps_rows * qeps_flavors * (n-letter block) minus [n]! D_q(p) times the
      bare word, where D_q(p) is the product of [p_ij] over i < j
  R6 (vacuum annihilation):        any word whose rightmost letter has row >= 2

R4 and R6 kill single words; they are never streamed as rows but decided
by the O(1) predicate `word_is_dead`, which the reduction machinery uses
directly (a block build makes rows only for the dead words its one-letter
sub-blocks cannot see: a^h v and a lone letter of row >= 2).  Likewise no
generator yields a row whose words all end in a letter of row >= 2: such a
row holds dead words only, so it can neither change an echelon form nor
fail a check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations

from .scalars import UsageError
from .weights import epsilon, p_diff

TEMPLATE_EXCHANGE = "exchange"          # R1
TEMPLATE_COMMUTE = "row_commute"        # R2
TEMPLATE_FLAVOR_SWAP = "flavor_swap"    # R3
TEMPLATE_DET = "determinant"            # R5

# The relation set's fingerprint, recorded in every cache file: the
# streamed templates plus a version.  Bump the version whenever a relation
# changes, R4 and R6 included, so that no file written under other
# relations is ever served.
RELATIONS_VERSION = 1
RELATIONS = ",".join((TEMPLATE_EXCHANGE, TEMPLATE_COMMUTE, TEMPLATE_FLAVOR_SWAP,
                      TEMPLATE_DET)) + f"/{RELATIONS_VERSION}"

# The quantum flavor symbol is eps(sigma) = (-q)^{EPS_SIGN * inversions}.
# Both signs are consistent (they are q <-> q^{-1} mirrors, see the tests);
# -1 keeps every structure constant in Z[q], where the +1 mirror forces
# rational denominators like [2]/2q into determinant-class reductions.
EPS_SIGN = -1


def eps_tag():
    """The convention tag recorded in reports and cache headers."""
    return f"qeps{EPS_SIGN:+d}"


def letter_code(n, row, flavor):
    if not (1 <= row <= n and 1 <= flavor <= n):
        raise UsageError(f"letter indices ({row},{flavor}) out of range 1..{n}")
    return (row - 1) * n + (flavor - 1)


def word_from_letters(n, letters):
    return bytes(letter_code(n, r, f) for r, f in letters)


def word_letters(n, w):
    return [(c // n + 1, c % n + 1) for c in w]


def word_row_content(n, w):
    c = [0] * n
    for code in w:
        c[code // n] += 1
    return tuple(c)


def word_flavor_content(n, w):
    c = [0] * n
    for code in w:
        c[code % n] += 1
    return tuple(c)


def word_is_dead(n, h, w):
    """True when the word is directly annihilated on the vacuum.

    Covers the annihilation rows (rightmost letter with row >= 2) and, in
    root mode, the h-th power rows (h consecutive equal letters).
    """
    if not w:
        return False
    if w[-1] >= n:          # row index >= 2
        return True
    if h is not None and len(w) >= h:
        run = 1
        prev = w[0]
        for c in w[1:]:
            if c == prev:
                run += 1
                if run >= h:
                    return True
            else:
                run = 1
                prev = c
    return False


def word_sort_key(w):
    """Total order: longer words first, then right-to-left letter order."""
    return (-len(w), w[::-1])


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

class State:
    """Sparse Scalar-weighted combination of keys: words for a chiral
    state, (word, barred word) pairs for a state of the tensor square."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field, n, terms=None):
        self.field = field
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def vacuum(cls, field, n):
        """The chiral vacuum; ``qzm.qalgebra.tensor_vacuum`` is the pair's."""
        return cls(field, n, {b"": field.one})

    def is_empty(self):
        return not self.terms

    def scale(self, c):
        if c.is_zero():
            return State(self.field, self.n)
        return State(self.field, self.n,
                     {k: c * x for k, x in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k)
            out[k] = c if v is None else v + c
        return State(self.field, self.n, out)

    def __sub__(self, other):
        return self + State(self.field, self.n,
                            {k: -c for k, c in other.terms.items()})

    def apply_letter(self, row, flavor):
        """Left multiplication of a chiral state by one generator letter;
        no reduction."""
        code = bytes([letter_code(self.n, row, flavor)])
        return State(self.field, self.n,
                     {code + w: c for w, c in self.terms.items()})

    def __repr__(self):
        def words(k):
            return k if isinstance(k, tuple) else (k,)
        parts = []
        for k in sorted(self.terms, key=lambda k: [word_sort_key(w)
                                                   for w in words(k)]):
            shown = " (x) ".join("".join(f"a[{r},{f}]" for r, f in
                                         word_letters(self.n, w)) or "|0>"
                                 for w in words(k))
            parts.append(f"({self.terms[k]!r})*{shown}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# relation instances
# ---------------------------------------------------------------------------

# terms: word bytes -> Scalar; position: the window's leftmost index or the
# split point
RelationInstance = namedtuple("RelationInstance", "template terms position")


def _arrangements(counts):
    """Distinct sequences over 0..len(counts)-1 with value v used counts[v]
    times, in lexicographic order (the next-permutation step)."""
    seq = [v for v, c in enumerate(counts) for _ in range(c)]
    out = [tuple(seq)]
    last = len(seq) - 1
    while True:
        i = last - 1
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = last
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = seq[:i:-1]
        out.append(tuple(seq))


def class_words(n, row_content, flavor_content):
    """All words with the given row and flavor multiset, deterministically:
    row sequences in lexicographic order, then flavor sequences."""
    # a letter code is row * n + flavor < 256, so adding the two byte
    # strings as big-endian integers carries nothing between letters
    rows = [int.from_bytes(bytes(r * n for r in rs), "big")
            for rs in _arrangements(row_content)]
    flavs = [int.from_bytes(bytes(fs), "big")
             for fs in _arrangements(flavor_content)]
    length = sum(row_content)
    return [(r + f).to_bytes(length, "big") for r in rows for f in flavs]


def exchange_terms(field, n, x, y, cnt):
    """The R1 row of the window x y, rows and flavors both differing, as
    three (pair, coefficient) terms: the row is the sum of coefficient *
    (prefix + pair + suffix) for any prefix and any suffix with row counts
    ``cnt``.  The coefficients depend on nothing else."""
    xi, xa = divmod(x, n)           # 0-based rows/flavors
    yi, ya = divmod(y, n)
    # i = right letter's row, j = left letter's row
    pij = p_diff(cnt, yi + 1, xi + 1)
    return ((bytes((x, y)), field.q_int(pij - 1)),
            (bytes((y, x)), field.q_int(-pij)),
            (bytes((yi * n + xa, xi * n + ya)),
             field.q_power(epsilon(ya, xa) * pij)))


def live_windows(n, w):
    """The positions p of the windows w[p] w[p+1] whose relation instance
    can hold a live word, right to left, so that a caller can accumulate
    the row counts of the suffix w[p+2:].

    A window's words share every letter right of it, so a word ending in a
    row >= 2 letter keeps only its last window, and none when the letter
    before has row >= 2 too: all that window's words are then dead.
    Whether a window is kept does not change when its two letters swap.
    """
    N = len(w)
    if N < 2 or w[-1] < n:
        return range(N - 2, -1, -1)
    return range(N - 2, N - 3 if w[-2] < n else N - 2, -1)


def exchange_rows(field, n, h, words):
    """Yield R1/R2/R3 instances for the ``live_windows`` of the listed
    words.

    These per-word instances serve the test oracles only.  Block builds
    (``qzm.basis.build_block``), their certificate
    (``qzm.certificate.chain_rows``) and verify-algebra's sweep
    (``qzm.cli._instances_all_zero``, which tests each window in place)
    do not call this.  The coefficients are made once per call: an R1
    window's three depend only on (x, y, p_ij), the R2 and R3 units only
    on eps.
    """
    one = field.one
    neg_one = -one
    neg_q = {e: -field.q_power(e) for e in (-1, 1)}
    r1 = {}             # (x, y, p_ij) -> exchange_terms
    for w in words:
        cnt = [0] * n
        for p in live_windows(n, w):
            x = w[p]
            y = w[p + 1]
            xi, xa = x // n, x % n          # 0-based rows/flavors
            yi, ya = y // n, y % n
            if xi != yi:
                if xa != ya:
                    key = (x, y, p_diff(cnt, yi + 1, xi + 1))
                    pairs = r1.get(key)
                    if pairs is None:
                        pairs = r1[key] = exchange_terms(field, n, x, y, cnt)
                    # the three words are pairwise distinct here
                    terms = {w[:p] + pair + w[p + 2:]: c for pair, c in pairs}
                    yield RelationInstance(TEMPLATE_EXCHANGE, terms, p)
                else:
                    w2 = w[:p] + bytes((y, x)) + w[p + 2:]
                    yield RelationInstance(TEMPLATE_COMMUTE, {w: one, w2: neg_one}, p)
            elif xa != ya:
                w2 = w[:p] + bytes((y, x)) + w[p + 2:]
                yield RelationInstance(
                    TEMPLATE_FLAVOR_SWAP, {w: one, w2: neg_q[epsilon(xa, ya)]}, p)
            cnt[yi] += 1


def _perm_data(n):
    perms = list(permutations(range(1, n + 1)))
    data = []
    for s in perms:
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if s[i] > s[j])
        data.append((s, inv))
    return data


def determinant_blocks(field, n):
    """The n-letter blocks of an R5 row, each with its coefficient: the
    ordinary antisymmetric symbol on rows times the quantum one,
    (-q)^{EPS_SIGN * inversions}, on flavors.  Made once per field and n,
    in ``field.tables``; callers must not mutate it."""
    key = (TEMPLATE_DET, n)
    if key not in field.tables:
        pdata = _perm_data(n)
        field.tables[key] = [
            (bytes((sr[t] - 1) * n + (sf[t] - 1) for t in range(n)),
             -field.q_power(EPS_SIGN * fi) if (EPS_SIGN * fi + ri) % 2
             else field.q_power(EPS_SIGN * fi))
            for sr, ri in pdata for sf, fi in pdata]
    return field.tables[key]


def determinant_bare(field, n, cnt):
    """The bare word's R5 coefficient, -[n]! D_q, where D_q = prod_{i<j}
    [p_ij] is taken at the weight of a suffix with row counts ``cnt``."""
    dq = field.one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dq = dq * field.q_int(p_diff(cnt, i, j))
            if dq.is_zero():
                return field.zero
    return -(field.q_factorial(n) * dq)


def determinant_terms(field, n, lower_words):
    """Yield (split, {word: coefficient}), one R5 row per lower word and split.

    Each row expands the n-letter determinant block inserted at the split
    (``determinant_blocks``), minus [n]! D_q evaluated at the suffix weight
    times the bare word (``determinant_bare``).

    A lower word ending in a row >= 2 letter yields only its last split:
    every other split keeps that ending, so its row holds dead words only.
    """
    blocks = determinant_blocks(field, n)
    for z in lower_words:
        L = len(z)
        for split in (L,) if z and z[-1] >= n else range(L + 1):
            prefix, suffix = z[:split], z[split:]
            terms = {prefix + b + suffix: c for b, c in blocks}
            terms[z] = determinant_bare(field, n, word_row_content(n, suffix))
            yield split, terms


def determinant_rows(field, n, h, lower_words):
    """The ``determinant_terms`` rows as R5 instances."""
    return (RelationInstance(TEMPLATE_DET, terms, split)
            for split, terms in determinant_terms(field, n, lower_words))
