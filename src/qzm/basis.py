"""Quotient bases of the chiral Fock modules by exact sparse elimination.

Words grade by (row content, flavor content): every relation template
preserves both except the determinant, which links a class to the one with
one letter of each row and flavor removed.  A *block* is such a class
together with its determinant-linked descendants; blocks are eliminated
independently, which is what keeps desk-scale runs cheap.

The columns of a block are commutation classes, not words.  R2 (rows
differ, same flavor) and R3 (same row, flavors differ) make the words of
one content a partially commutative (trace) monoid: every word is a unit
q^E times its class's representative, and ``class_rep`` computes both in
closed form, so each live class is one column, the two-term rows are never
streamed and a block keeps no per-word map.  A class dies with any of its
words that the vacuum-annihilation or h-th power rows kill outright (an
O(1) predicate, in place of one-term pivot rows).  A block never lists its
words either: one depth-first search yields the class representatives of
every content up to the block's, its live words are counted by a dynamic
program, and the three-term exchange rows and the determinant rows are
made once per (prefix representative, window or split, suffix
representative), which spans what all their instances span (the proof is
in ``chain_rows``).  Each row is mapped term by term onto columns and
goes through incremental Gauss-Jordan over the exact scalar field; the
certificate for a stored echelon form reduces the same rows through it.

The word order eliminates longer words toward shorter ones (so determinant
chains rewrite downward and the vacuum stays a basis word); within one
length it compares letter sequences right to left.  A class's
representative is its last word in that order, the one word of the class
that word-level elimination would leave free, so quotient bases and every
word's reduction are the same as eliminating all relation instances over
all words.  The reduced row echelon form is uniquely determined by the
relation span and the column order, so results are reproducible bit for
bit no matter how rows are streamed in.

Barred classes satisfy identical templates in (row, flavor) terms, so
block bases are shared between chiralities.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from math import factorial

from . import fock
from .fock import (EPS_SIGN, ChiralState, class_words, determinant_blocks,
                   determinant_bare, determinant_rows, exchange_rows,
                   exchange_terms, word_flavor_content, word_is_dead,
                   word_row_content, word_sort_key)
from .scalars import GENERIC, ROOT, UsageError, make_field

DEFAULT_BUDGET = 100000


class BudgetExceeded(RuntimeError):
    def __init__(self, key, size, budget):
        super().__init__(f"block {key} has {size} words, over the budget of {budget}")
        self.key = key
        self.size = size
        self.budget = budget


class RelationInconsistency(RuntimeError):
    """The vacuum class collapsed to dimension zero (a convention bug)."""


def _multinomial(counts):
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def class_size(row_content, flavor_content):
    return _multinomial(row_content) * _multinomial(flavor_content)


def chain_levels(row_content, flavor_content):
    """The class and its determinant-linked descendants, top first."""
    levels = [(tuple(row_content), tuple(flavor_content))]
    r, f = levels[0]
    while min(r) >= 1 and min(f) >= 1:
        r = tuple(x - 1 for x in r)
        f = tuple(x - 1 for x in f)
        levels.append((r, f))
    return levels


def _level_words(n, levels):
    """The words of each chain level, each sorted right to left."""
    out = []
    for r, f in levels:
        ws = class_words(n, r, f)
        ws.sort(key=lambda w: w[::-1])
        out.append(ws)
    return out


# ---------------------------------------------------------------------------
# incremental Gauss-Jordan over integer-indexed sparse rows
# ---------------------------------------------------------------------------

def _reduce_row(row, rref):
    """Reduce a row of nonzero entries in place through ``rref``, which maps
    a pivot column to its tail {column: Scalar}, meaning the pivot equals
    the tail combination in the quotient; tails only hold non-pivot columns.
    The tails the row takes in add free columns only, so one ascending pass
    over its pivot columns clears them all.  Returns the row: empty exactly
    when it was in the span."""
    for j in sorted([j for j in row if j in rref]):
        c = row.pop(j)
        for t, s in rref[j].items():
            cs = c * s
            v = row.get(t)
            if v is None:
                row[t] = cs
            else:
                v = v + cs
                if v.is_zero():
                    del row[t]
                else:
                    row[t] = v
    return row


def _insert_row(row, rref, containing):
    """Insert one relation row, maintaining a fully reduced echelon form
    (see ``_reduce_row``).  Returns the new pivot index, or None if the row
    was already in the span."""
    row = _reduce_row(row, rref)
    if not row:
        return None
    lead = min(row)
    c = row.pop(lead)
    cinv = c.invert()
    tail = {}
    for t, s in row.items():
        cs = s * cinv
        if not cs.is_zero():
            tail[t] = -cs
    owners = containing.pop(lead, None)
    if owners:
        for big in owners:
            tl = rref[big]
            u = tl.pop(lead)
            for t, s in tail.items():
                us = u * s
                v = tl.get(t)
                if v is None:
                    tl[t] = us
                    containing.setdefault(t, set()).add(big)
                else:
                    v = v + us
                    if v.is_zero():
                        del tl[t]
                        containing[t].discard(big)
                    else:
                        tl[t] = v
    rref[lead] = tail
    for t in tail:
        containing.setdefault(t, set()).add(lead)
    return lead


def class_rep(n, w, memo=None):
    """The word's R2/R3 commutation class: (rep, E) with w = q^E rep.

    Letters that share exactly one of row or flavor commute up to a unit, so
    the words of one content form a trace monoid.  rep is its greedy normal
    form from the right: repeatedly move to the end the largest letter that
    commutes with every letter after it (the lexicographic normal form of
    the reversed word; Anisimov-Knuth 1979, Diekert-Rozenberg, The Book of
    Traces, 1995), so the class's last word in the right-to-left order, the
    one that word-level elimination leaves free.  The greedy on c u takes
    rep(u) from the right, and c once c commutes with all that is left and
    is larger than its last letter: rep(c u) is rep(u) with c inserted after
    the longest prefix that c commutes with, less the letters larger than c
    at its end.  Each same-row letter that c passes is an R3 swap, q^1 when
    c has the larger flavor and q^-1 otherwise; R2 swaps cost nothing.  So
    E = I(w) - I(rep), where I counts same-row pairs with the larger flavor
    on the left, and no cycle of swaps can disagree, in either field.

    The class is dead (some word is ``word_is_dead``) exactly when rep is.
    If a word ends in a row >= 2 letter, that letter can move to the end,
    so the largest one that can, rep's last, has row >= 2 too.  Once the
    greedy takes one of h equal letters that some word has adjacent, nothing
    lies between them in the dependence order, so it takes the others next.

    ``memo`` maps words to (rep, E) and gains every suffix of w.
    """
    memo = {} if memo is None else memo
    out = memo.get(w)
    if out is not None:
        return out
    if w:
        rep, e = class_rep(n, w[1:], memo)
        c = w[0]
        row, flavor = divmod(c, n)
        k = 0
        for d in rep:
            if (d // n == row) == (d % n == flavor):    # c, d do not commute
                break
            k += 1
        while k and rep[k - 1] > c:
            k -= 1
        for d in rep[:k]:
            if d // n == row:
                e += 1 if c > d else -1
        out = (rep[:k] + bytes((c,)) + rep[k:], e)
    else:
        out = (b"", 0)
    memo[w] = out
    return out


class BlockBasis:
    """Reduction data for one (row content, flavor content) block chain.

    Columns are the live commutation classes, named by their reps in
    elimination order, and ``index`` maps each rep to its column; a word
    finds its column through ``class_rep``, so no per-word map is kept.
    ``rref`` maps a pivot column to its tail {column: Scalar} over free
    columns.  ``live_words`` counts the words that are not ``word_is_dead``,
    dead classes included.
    """

    __slots__ = ("key", "field", "columns", "index", "rref", "total_words",
                 "live_words", "basis_words", "dim")

    def __init__(self, key, field, columns, rref, total_words, live_words):
        self.key = key
        self.field = field
        self.columns = columns
        self.index = {w: j for j, w in enumerate(columns)}
        self.rref = rref
        self.total_words = total_words
        self.live_words = live_words
        self.basis_words = [w for j, w in enumerate(columns) if j not in rref]
        self.dim = len(self.basis_words)

    def reduce_word(self, w, memo=None):
        """The word as a combination of basis words: tuple of (word, Scalar),
        a None scalar meaning one; () for a word of a dead class, whose rep
        is no column.  ``memo`` is passed to ``class_rep``."""
        rep, e = class_rep(len(self.key[0]), w, memo)
        j = self.index.get(rep)
        if j is None:
            return ()
        tail = self.rref.get(j)
        unit = self.field.q_power(e) if e else None
        if tail is None:
            return ((rep, unit),)
        cols = self.columns
        return tuple((cols[t], s if unit is None else s * unit)
                     for t, s in tail.items())


def live_count(n, h, row_content, flavor_content, memo):
    """The number of words of the content that are not ``word_is_dead``,
    without listing them.  ``memo`` holds counts for this (n, h)."""
    return _live_tails(n, h, tuple(row_content), tuple(flavor_content), -1, 0,
                       memo)


def _live_tails(n, h, rc, fc, last, run, memo):
    """The words t of content (rc, fc) that leave w t live, for any w ending
    in ``run`` copies of letter ``last`` (-1: w is empty): w t ends in a
    row-1 letter and has no h equal letters in a row.  A dynamic program
    over (content, last letter, run length)."""
    N = sum(rc)
    if not N:
        return int(last < n)
    if h is None or N + run < h:
        # no run can reach h, and a share rc[0]/N of the row sequences
        # ends in row 1
        return class_size(rc, fc) * rc[0] // N
    state = (rc, fc, last, run)
    out = memo.get(state)
    if out is None:
        out = 0
        for b in range(n * n):
            i, a = divmod(b, n)
            r = run + 1 if b == last else 1
            if rc[i] and fc[a] and r < h:
                out += _live_tails(n, h, rc[:i] + (rc[i] - 1,) + rc[i + 1:],
                                   fc[:a] + (fc[a] - 1,) + fc[a + 1:],
                                   b, r, memo)
        memo[state] = out
    return out


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


def chain_rows(field, n, h, eps_sign, key):
    """(columns, rows) of one block chain: its columns, the chain levels'
    live class reps ordered by ``word_sort_key``, and an iterator over its
    relation rows, each a nonempty {column: Scalar}.  One depth-first
    search (``_reps_by_content``) yields the reps of every content up to
    the block's own, and no word is listed.

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
            blocks = determinant_blocks(field, n, eps_sign)
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


def build_block(field, n, h, eps_sign, row_content, flavor_content, live_memo):
    """The quotient basis of one block chain: every row of ``chain_rows``
    goes through ``_insert_row``.  ``live_count`` counts the live words (its
    ``live_memo`` is kept by the context)."""
    key = (tuple(row_content), tuple(flavor_content))
    levels = chain_levels(*key)
    columns, rows = chain_rows(field, n, h, eps_sign, key)
    rref = {}
    containing = {}
    for row in rows:
        _insert_row(row, rref, containing)
    bb = BlockBasis(key, field, columns, rref,
                    sum(class_size(r, f) for r, f in levels),
                    sum(live_count(n, h, r, f, live_memo) for r, f in levels))
    if bb.index.get(b"", -1) in rref:
        raise RelationInconsistency(
            f"vacuum vector collapsed while eliminating block {key}")
    return bb


class FamilyBasis:
    """Aggregate of all flavor blocks of one row-content class family."""

    def __init__(self, row_content, blocks):
        self.row_content = tuple(row_content)
        self.blocks = blocks
        self.dimension = sum(b.dim for b in blocks.values())


# ---------------------------------------------------------------------------
# context: field + conventions + caches
# ---------------------------------------------------------------------------

class FockContext:
    """Owns the field, the epsilon convention, budgets and all basis caches.

    Block construction is pure; the cache behaves as a get-or-compute map.
    A context is intended for single-threaded use: its field memoises
    arithmetic (see qzm.scalars), and it empties that memo when it is
    released, so the memo lives no longer than the context.
    """

    def __init__(self, n, k=None, *, generic=False, eps_sign=EPS_SIGN,
                 budget=DEFAULT_BUDGET, disk_cache=None):
        if not 2 <= n <= 16:
            raise UsageError("need 2 <= n <= 16: a letter is one byte")
        if generic:
            self.field = make_field(GENERIC)
            self.h = None
            self.k = k
        else:
            if k is None or k < 1:
                raise UsageError("root mode needs level k >= 1")
            self.h = n + k
            self.k = k
            self.field = make_field(ROOT, self.h)
        weakref.finalize(self, self.field.clear_memo)
        self.n = n
        self.eps_sign = eps_sign
        self.budget = budget
        self.disk_cache = disk_cache
        self._blocks = {}
        self._wred = {}
        self._classes = {}      # class_rep's memo for reduce_word
        self._live = {}         # live_count's memo for build_block
        self.stats = {"blocks_built": 0, "max_block_words": 0,
                      "blocks_loaded": 0}

    def vacuum(self, chirality=fock.UNBARRED):
        return ChiralState.vacuum(self.field, self.n, chirality)

    # -- quotient bases ------------------------------------------------------

    def block_basis(self, row_content, flavor_content):
        key = (tuple(row_content), tuple(flavor_content))
        bb = self._blocks.get(key)
        if bb is not None:
            return bb
        total = sum(class_size(r, f) for r, f in chain_levels(*key))
        if total > self.budget:
            raise BudgetExceeded(key, total, self.budget)
        if self.disk_cache is not None:
            bb = self.disk_cache.load_block(self, key)
        if bb is not None:
            self.stats["blocks_loaded"] += 1
        else:
            bb = build_block(self.field, self.n, self.h, self.eps_sign,
                             key[0], key[1], self._live)
            self.stats["blocks_built"] += 1
            if self.disk_cache is not None:
                self.disk_cache.store_block(self, key, bb)
        self._blocks[key] = bb
        if total > self.stats["max_block_words"]:
            self.stats["max_block_words"] = total
        return bb

    def family_basis(self, row_content):
        """Quotient data for a whole class family (all flavor contents)."""
        total = sum(row_content)
        blocks = {}
        for fc in _compositions(total, self.n):
            blocks[fc] = self.block_basis(row_content, fc)
        return FamilyBasis(row_content, blocks)

    # -- reduction -----------------------------------------------------------

    def reduce_word(self, w):
        """Reduced form of one word: tuple of (basis word, Scalar|None) pairs."""
        red = self._wred.get(w)
        if red is not None:
            return red
        n = self.n
        if word_is_dead(n, self.h, w):
            red = ()
        else:
            bb = self.block_basis(word_row_content(n, w), word_flavor_content(n, w))
            red = bb.reduce_word(w, self._classes)
        self._wred[w] = red
        return red

    def reduce_state(self, state):
        """Express a state in quotient basis words only; idempotent."""
        acc = {}
        for w, c in state.terms.items():
            for fw, s in self.reduce_word(w):
                cs = c if s is None else c * s
                v = acc.get(fw)
                acc[fw] = cs if v is None else v + cs
        return ChiralState(self.field, self.n, state.chirality, acc)

    def is_zero_state(self, state):
        return self.reduce_state(state).is_empty()

    # -- relation instances ----------------------------------------------

    def relation_instances(self, row_content, flavor_content):
        """The R1/R2/R3 and R5 instances of the block chain, word by word,
        as an iterator; none holds dead words only (see qzm.fock).  Blocks
        and their certificate use ``chain_rows`` instead."""
        field, n, h = self.field, self.n, self.h
        levels = chain_levels(row_content, flavor_content)
        level_words = _level_words(n, levels)
        for ws in level_words:
            yield from exchange_rows(field, n, h, ws)
        for ws in level_words[1:]:
            yield from determinant_rows(field, n, h, self.eps_sign, ws)

    def certify(self, bb):
        """The exact certificate for an echelon form eliminated elsewhere
        (a cache record): its columns are the chain's live class reps, so
        R2/R3 hold, and every row of ``chain_rows`` reduces to zero through
        ``bb.rref`` alone, so every relation instance does."""
        columns, rows = chain_rows(self.field, self.n, self.h, self.eps_sign,
                                   bb.key)
        return (columns == bb.columns
                and not any(_reduce_row(row, bb.rref) for row in rows))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def quotient_basis(ctx, row_content, flavor_content=None):
    """Quotient basis of a class family, or of a single flavor block."""
    if flavor_content is not None:
        return ctx.block_basis(row_content, flavor_content)
    return ctx.family_basis(row_content)
