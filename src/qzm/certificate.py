"""The exact certificate for a block's echelon form computed elsewhere:
rows that span every relation instance of a chain, over its live class
reps, sharing nothing with a build (qzm.basis.build_block).  ``import qzm``
does not load this module."""

from functools import lru_cache

from .basis import chain_levels, class_rep
from .fock import (determinant_bare, determinant_blocks, exchange_terms,
                   word_row_content, word_sort_key)


class _Alphabet:
    """The letters for one n, and contents packed into one int: a count per
    row, then one per flavor, each in a field of ``width`` bits whose top
    bit is a guard.  Then d is at most c in every count exactly when
    ((c | guard) - d) & guard == guard, and c - d is their difference."""

    def __init__(self, n, width):
        self.n = n
        self.width = width
        self.guard = sum(1 << (k * width + width - 1) for k in range(2 * n))
        size = n * n
        delta = [(1 << (b // n) * width) + (1 << (n + b % n) * width)
                 for b in range(size)]
        # (letter, its byte, its content, the letters it commutes with)
        self.letters = [(b, bytes((b,)), delta[b],
                         sum(1 << d for d in range(size)
                             if (d // n == b // n) != (d % n == b % n)))
                        for b in range(size)]
        # the R1 windows x y, whose rows and flavors both differ
        self.windows = [(x, y, delta[x] + delta[y])
                        for x in range(size) for y in range(size)
                        if x // n != y // n and x % n != y % n]

    def pack(self, row_content, flavor_content):
        return sum(c << k * self.width
                   for k, c in enumerate(row_content + flavor_content))


@lru_cache(maxsize=None)
def _alphabet(n, length):
    """The alphabet for contents of at most ``length`` letters."""
    return _Alphabet(n, length.bit_length() + 1)


def _reps_by_content(alphabet, h, top):
    """Every class rep of content at most ``top`` without h equal letters in
    a row, as {packed content: its reps in lexicographic order}.

    A word is a rep exactly when it has no factor a u b with a > b where a
    commutes with b and with every letter of u: the greedy in ``class_rep``
    would move such an a past u b.  The words without such a factor, and
    without h equal letters in a row, are closed under taking factors, so a
    depth-first search that appends one letter at a time and checks only
    the new one yields exactly these reps.  It keeps the set S of letters
    that commute with every letter after them: b may follow when no letter
    of S that commutes with b is larger than b, and S then becomes
    (S & comm(b)) | {b}.
    """
    guard = alphabet.guard
    room = top | guard
    fitting = {}        # content -> the letters that still fit after it
    reps = {}

    def grow(w, c, s, last, run):
        ws = reps.get(c)
        if ws is None:
            reps[c] = ws = []
            fitting[c] = [(b, byte, c + d, comm)
                          for b, byte, d, comm in alphabet.letters
                          if ((room - c - d) & guard) == guard]
        ws.append(w)
        for b, byte, cd, comm in fitting[c]:
            m = s & comm
            if not m >> (b + 1):
                r = run + 1 if b == last else 1
                if r != h:
                    grow(w + byte, cd, m | (1 << b), b, r)

    grow(b"", 0, 0, -1, 0)
    return reps


def _live_reps(alphabet, reps, levels):
    """The chain levels' live reps (empty, or ending in a row-1 letter), in
    the order of ``word_sort_key``: the columns of the block."""
    n = alphabet.n
    return sorted((w for r, f in levels
                   for w in reps.get(alphabet.pack(r, f), ())
                   if not w or w[-1] < n), key=word_sort_key)


def chain_rows(field, n, h, key):
    """(columns, rows) of one block chain, for its certificate: the chain
    levels' live class reps ordered by ``word_sort_key``, and an iterator
    over rows that span its relation instances, each a nonempty {column:
    Scalar}.  One depth-first search (``_reps_by_content``) yields the reps
    of every content up to the block's own, and no word is listed.

    The rows are keyed by reps, not by words.  Call u0 and v0 the prefix
    and the suffix of an R1 instance's window x y (its words are u0 x y v0,
    u0 y x v0 and u0 x' y' v0), or of an R5 instance's split point.
    (i) An R2 or R3 swap inside u0, or inside v0, multiplies every term
    word of the instance by the same unit q^e: the terms share u0 and v0,
    and the unit depends only on the two letters swapped.  (ii) The
    coefficients depend only on x and y (for R5, on nothing) and on the
    row content of v0, which the swaps keep.  So, with u0 = q^a rep(u0)
    and v0 = q^b rep(v0) modulo R2/R3, the instance's row in class
    coordinates is q^(a+b) times the row of rep(u0), x y, rep(v0): every
    instance is a unit multiple of one row per (prefix rep, window, suffix
    rep), and of one per (prefix rep, suffix rep) for R5 on the lower
    levels.  These rows span the same space, and the reduced echelon form,
    unique for a span and a column order, is the one all instances give.
    Rows on dead words only are not made: those whose suffix rep ends in a
    row >= 2 letter, so that every term word does (a class has a word
    ending so exactly when its rep does; see ``class_rep``), those whose
    prefix or suffix rep has h equal letters in a row, and those of a
    window x y at the very end with both rows >= 2.

    Rows with the shortest suffixes go first, top level first; elimination
    is fastest so (in the opposite order it took 3.6 times as long on
    ``fprime --n 3 --k 2``).
    """
    levels = chain_levels(*key)
    alphabet = _alphabet(n, sum(key[0]))
    guard = alphabet.guard
    reps = _reps_by_content(alphabet, h, alphabet.pack(*key))
    columns = _live_reps(alphabet, reps, levels)
    index = {w: j for j, w in enumerate(columns)}
    # the suffix reps that can end a live word (empty, or ending in row 1),
    # by content, shortest first
    ends = []
    for c, ws in reps.items():
        vs = [w for w in ws if not w or w[-1] < n]
        if vs:
            ends.append((c, vs))
    ends.sort(key=lambda e: len(e[1][0]))
    classes = {}        # class_rep's memo, for these rows only
    qpow = field.q_power

    def row_of(u, terms):
        """The row of the terms (t, c), which say c * (u t), in columns."""
        row = {}
        for t, c in terms:
            w = u + t
            rep, e = classes.get(w) or class_rep(n, w, classes)
            j = index.get(rep)
            if j is None:
                continue
            if e:
                c = c * qpow(e)
            v = row.get(j)
            row[j] = c if v is None else v + c
        return {j: c for j, c in row.items() if not c.is_zero()}

    def rows():
        if len(levels) > 1:
            blocks = determinant_blocks(field, n)
        for level, (r, f) in enumerate(levels):
            c = alphabet.pack(r, f)
            room = c | guard
            for cv, vs in ends:
                if ((room - cv) & guard) != guard:
                    continue
                rest = c - cv
                rest_room = rest | guard
                cnt = word_row_content(n, vs[0])
                # (prefix content, terms (t, c)): a row sums c * (u t v) over
                # the terms, one row per prefix rep u and suffix rep v
                groups = []
                if level and rest in reps:
                    groups.append((rest, blocks + [
                        (b"", determinant_bare(field, n, cnt))]))
                for x, y, d in alphabet.windows:
                    # not x y at the very end with both rows >= 2: all dead
                    if (((rest_room - d) & guard) == guard and rest - d in reps
                            and (vs[0] or x < n or y < n)):
                        groups.append((rest - d,
                                       exchange_terms(field, n, x, y, cnt)))
                for cu, terms in groups:
                    terms = [(p, s) for p, s in terms if not s.is_zero()]
                    for v in vs:
                        vterms = [(p + v, s) for p, s in terms]
                        for u in reps[cu]:
                            row = row_of(u, vterms)
                            if row:
                                yield row

    return columns, rows()
