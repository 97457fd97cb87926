"""Quotient bases of the chiral Fock modules by exact sparse elimination.

Words grade by (row content, flavor content): every relation template
preserves both except the determinant, which links a class to the one with
one letter of each row and flavor removed.  A *block* is such a class
together with its determinant-linked descendants, its chain.

The columns of a block are commutation classes, not words.  R2 (rows
differ, same flavor) and R3 (same row, flavors differ) make the words of
one content a partially commutative (trace) monoid: every word is a unit
q^E times its class's representative, and ``class_rep`` computes both in
closed form, so each live class is one column, named by its rep, and a
block keeps only its basis words and each nonempty pivot tail over them.  A
class dies with any of its words that ``word_is_dead`` kills (R4, R6).  A
block is built from its one-letter sub-blocks, with no word listed
(``build_block``); the certificate for a record built elsewhere is in
qzm.certificate.

The word order eliminates longer words toward shorter ones (so determinant
chains rewrite downward and the vacuum stays a basis word); within one
length it compares letter sequences right to left.  A class's
representative is its last word in that order, the one word of the class
that word-level elimination would leave free, so quotient bases and every
word's reduction are the same as eliminating all relation instances over
all words.  The reduced row echelon form is uniquely determined by the
relation span and the column order, so results are reproducible bit for
bit however they are computed.  Barred words satisfy identical templates
in (row, flavor) terms, so they reduce through the same blocks.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import chain
from math import factorial

from .fock import (ChiralState, class_words, determinant_blocks,
                   determinant_bare, determinant_rows, exchange_rows,
                   exchange_terms, word_flavor_content, word_is_dead,
                   word_row_content, word_sort_key)
from .scalars import GENERIC, ROOT, UsageError, make_field
from .weights import epsilon

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

    Its columns are the live commutation classes, named by their reps; a
    word finds its rep through ``class_rep``, so no per-word map is kept.
    ``basis_words`` are the free reps and ``rref`` maps each other rep, a
    pivot, to its tail when that is nonempty: a tuple of (basis word,
    Scalar) meaning the pivot's reduction.  Both are in column order
    (``word_sort_key``), and so is each tail.  ``live_words`` counts the
    words that are not ``word_is_dead``, dead classes included.
    """

    __slots__ = ("key", "field", "basis_words", "rref", "total_words",
                 "live_words", "dim", "_free")

    def __init__(self, key, field, basis_words, rref, total_words, live_words):
        self.key = key
        self.field = field
        self.basis_words = basis_words
        self.rref = rref
        self.total_words = total_words
        self.live_words = live_words
        self.dim = len(basis_words)
        self._free = {w: ((w, None),) for w in basis_words}

    def reduce_word(self, w, memo=None):
        """The word as a combination of basis words: tuple of (word, Scalar),
        a None scalar meaning one; () for a word of a dead class or of a
        pivot that reduces to zero.  ``memo`` is passed to ``class_rep``."""
        rep, e = class_rep(len(self.key[0]), w, memo)
        red = self.rref.get(rep) or self._free.get(rep, ())
        if e and red:
            unit = self.field.q_power(e)
            red = tuple((t, unit if s is None else s * unit) for t, s in red)
        return red


def live_count(n, h, row_content, flavor_content, memo):
    """The number of words of the content that are not ``word_is_dead``,
    without listing them.  ``memo`` holds counts for this (n, h)."""
    return _live_tails(n, h, tuple(row_content), tuple(flavor_content), -1, 0,
                       memo)


def _live_tails(n, h, rc, fc, last, run, memo):
    """The words t of content (rc, fc) that leave w t live, for any w ending
    in ``run`` copies of letter ``last`` (-1: w is empty): w t ends in a
    row-1 letter and has no h equal letters in a row.

    A letter (i, a) occurs at most min(rc[i], fc[a]) times in t, so no run
    reaches h when max(rc) < h or max(fc) < h and the run of ``last`` plus
    its copies in t stays below h.  The count is then closed-form: a share
    rc[0]/N of the row sequences ends in row 1, and the flavor sequence is
    free.  This always holds in generic mode, and in root mode in the blocks
    of admissible diagrams, whose rows the spread restriction keeps below h
    boxes.  Only where R4 can apply does a dynamic program over (content,
    last letter, run length) count, memoised in ``memo``."""
    N = sum(rc)
    if not N:
        return int(last < n)
    if h is None or (max(rc) < h or max(fc) < h) and (
            last < 0 or run + min(rc[last // n], fc[last % n]) < h):
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


@lru_cache(maxsize=None)
def _commute_table(n, a):
    """The ``bytes.translate`` table that maps a letter d to 0 if it
    commutes with a and is larger, 1 if it does not commute, and 2 if it
    commutes and is smaller; the letters that commute with a share exactly
    one of its row and flavor."""
    ai, af = divmod(a, n)
    t = bytearray(b"\1") * 256
    for d in {ai * n + f for f in range(n)} ^ {r * n + af for r in range(n)}:
        t[d] = 2 * (d < a)
    return bytes(t)


def build_block(ctx, row_content, flavor_content):
    """The quotient basis of one block chain, from its one-letter
    sub-blocks, got through ``ctx.block_basis`` (so the caches, the budget
    and ``ctx.stats`` apply to them).

    Why this holds, with c the top content, delta one letter of each row
    and flavor, and chain(c) the words of the levels c - k delta: (i) the
    words of chain(c) are the direct sum over the letters a of a times the
    words of chain(c - a), plus the vacuum when the chain reaches the empty
    content; (ii) every instance u r v with u nonempty is a letter times an
    instance of chain(c - a), and a dead word is a letter times a dead
    word, or a^h v (R4), or one letter of row >= 2 (R6); (iii) the
    relations are closed under left multiplication, and R1 and R5 see
    their suffix v only through the differences of its row counts, which
    every relation keeps, so the image of r v depends only on v modulo the
    relations of its chain.  So the quotient is A_c, the direct sum over a
    of a (x) (basis of chain(c - a)) plus the vacuum, modulo these rows,
    with beta running over the basis words of the chain named:

      R1/R2/R3  x y beta, x != y, in chain(c - x - y): ``exchange_terms``,
                x y - y x, or x y - q^eps(x, y) y x; R2/R3 only for x < y,
                as eps is antisymmetric, so y x - q^eps(y, x) x y is
                -q^eps(y, x) times x y - q^eps(x, y) y x
      R4        a^h beta, in chain(c - h a) (root mode)
      R5        the ``determinant_blocks`` b beta plus ``determinant_bare``
                times beta, in chain(levels[1])
      R6        the letter x of row >= 2, when chain(c - x) holds the vacuum

    A term x w maps to x (x) ``block(c - x).reduce_word(w)``.  The columns,
    the live class reps, are the words a w, w a column of chain(c - a),
    such that every letter of the longest prefix of w that commutes with a
    is larger than a (see ``class_rep``); a w maps to a (x) w's tail.  From
    the last column to the first, a column is free when its image is
    independent, modulo the rows, of the later free columns' images, and
    its tail is otherwise the unique combination of those: the reduced
    echelon form that all relation instances give in this column order.
    One elimination, with a coordinate per column beside A_c's, finds both.
    Only nonempty tails are kept, so a w is not listed when w is a pivot
    with the empty tail: its image is zero, and no other row reaches it.

    The rows stop once every coordinate a row or column can reach is a
    pivot (the vacuum's only when the chain reaches the empty content): the
    fully reduced tails then hold nothing, the quotient is zero, and no
    column is listed but the vacuum, whose scan finds it collapsed.
    """
    key = (tuple(row_content), tuple(flavor_content))
    field, n, h, one = ctx.field, ctx.n, ctx.h, ctx.field.one
    levels = chain_levels(*key)

    def sub_block(content, a, times=1):
        """The block of the content less ``times`` letters a, or None."""
        (r, f), (i, b) = content, divmod(a, n)
        content = (r[:i] + (r[i] - times,) + r[i + 1:],
                   f[:b] + (f[b] - times,) + f[b + 1:])
        return None if min(r[i], f[b]) < times else (
            ctx._blocks.get(content) or ctx.block_basis(*content))

    subs = {a: sb for a in range(n * n) if (sb := sub_block(key, a))}
    coords = {}         # letter a -> {basis word of subs[a]: coordinate}
    size = 1            # coordinate 0 is the vacuum
    for a, sb in subs.items():
        coords[a] = {w: size + i for i, w in enumerate(sb.basis_words)}
        size += sb.dim
    empty = not sum(levels[-1][0])      # the chain reaches the empty content
    target = size - 1 + empty           # the coordinates rows can reach

    def image(terms):
        """The sum of c * w over the terms (w, c), in A_c's coordinates."""
        row = {}
        for w, c in terms:
            for j, s in ([(coords[w[0]][bw], s) for bw, s in
                          subs[w[0]].reduce_word(w[1:], memo)]
                         if w else [(0, None)]):
                cs = c if s is None else c * s
                row[j] = row[j] + cs if j in row else cs
        return {j: c for j, c in row.items() if not c.is_zero()}

    def rows():
        """The relation rows, each a list of terms (w, c)."""
        neg_q = ctx._neg_q
        for x, sx in subs.items():
            xi, xa = divmod(x, n)
            for y in subs:
                yi, ya = divmod(y, n)
                swap = xi == yi or xa == ya
                if y == x or swap and y < x or not (
                        sub := sub_block(sx.key, y)) or not sub.dim:
                    continue
                pairs = (exchange_terms(field, n, x, y, sub.key[0]) if not swap
                         else ((bytes((x, y)), one),
                               (bytes((y, x)), neg_q[epsilon(xa, ya)])))
                for beta in sub.basis_words:
                    yield [(p + beta, c) for p, c in pairs]
            sub = sub_block(key, x, h) if h else None
            for beta in sub.basis_words if sub else ():
                yield [(bytes((x,)) * h + beta, one)]
            if x >= n and b"" in sx._free:
                yield [(bytes((x,)), one)]
        lower = ctx.block_basis(*levels[1]) if len(levels) > 1 else None
        if lower and lower.dim:
            blocks = determinant_blocks(field, n)
            bare = determinant_bare(field, n, levels[1][0])
            for beta in lower.basis_words:
                yield [(b + beta, c) for b, c in blocks] + [(beta, bare)]

    rref, containing, memo = {}, {}, {}     # memo: class_rep's, per build
    for terms in rows() if target else ():
        if row := image(terms):
            _insert_row(row, rref, containing)
            if len(rref) == target:
                break

    columns = [b""] if empty else []
    for a, sb in subs.items() if len(rref) < target else ():
        run = bytes((a,)) * (h - 1) if h else None
        t = _commute_table(n, a)
        columns += [bytes((a,)) + w for w in chain(sb.basis_words, sb.rref)
                    if (w or a < n) and not (run and w.startswith(run))
                    and w.translate(t).lstrip(b"\0")[:1] != b"\2"]
    columns.sort(key=word_sort_key)
    basis, tails = [], {}   # free columns, and pivot -> nonempty tail
    minus_one = field.minus_one
    for j in range(len(columns) - 1, -1, -1):
        w = columns[j]
        if w:       # a w maps to a (x) w's tail in subs[a]
            v = w[1:]
            row = {coords[w[0]][bw]: s
                   for bw, s in subs[w[0]].rref.get(v, ((v, one),))}
        else:
            row = {0: one}
        row[size + j] = minus_one
        _reduce_row(row, rref)
        if min(row) < size:
            _insert_row(row, rref, containing)
            basis.append(w)
        elif len(row) > 1:      # its least coordinate is the column's own
            tails[w] = tuple([(columns[t - size], s)
                              for t, s in sorted(row.items())[1:]])
    if empty and b"" not in basis:
        raise RelationInconsistency(
            f"vacuum vector collapsed while eliminating block {key}")
    return BlockBasis(key, field, basis[::-1], dict(reversed(tails.items())),
                      sum(class_size(r, f) for r, f in levels),
                      sum(live_count(n, h, r, f, ctx._live) for r, f in levels))


class FamilyBasis:
    """Aggregate of all flavor blocks of one row-content class family."""

    def __init__(self, row_content, blocks):
        self.row_content = tuple(row_content)
        self.blocks = blocks
        self.dimension = sum(b.dim for b in blocks.values())


# ---------------------------------------------------------------------------
# context: field + budget + caches
# ---------------------------------------------------------------------------

class FockContext:
    """Owns the field, the budget and all basis caches.

    Block construction is pure; the cache behaves as a get-or-compute map.
    A context is intended for single-threaded use: its field memoises
    arithmetic (see qzm.scalars), and it empties that memo when it is
    released, so the memo lives no longer than the context.
    """

    def __init__(self, n, k=None, *, generic=False, budget=DEFAULT_BUDGET,
                 disk_cache=None):
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
        self.budget = budget
        self.disk_cache = disk_cache
        self._blocks = {}
        self._wred = {}
        self._classes = {}      # class_rep's memo for reduce_word
        self._live = {}         # live_count's memo for build_block
        # the R2/R3 swap units -q^e, e = eps(x, y)
        self._neg_q = {e: -self.field.q_power(e) for e in (-1, 0, 1)}
        self._diagrams = {}     # qalgebra.diagram_coordinates, by parts
        self.stats = {"blocks_built": 0, "max_block_words": 0,
                      "blocks_loaded": 0}

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
            bb = build_block(self, key[0], key[1])
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

    def reduce_terms(self, terms):
        """{word: Scalar} as {basis word: nonzero Scalar}: the zero test.
        Zero coefficients are skipped, so their words build no block."""
        acc = {}
        for w, c in terms.items():
            for fw, s in () if c.is_zero() else self.reduce_word(w):
                cs = c if s is None else c * s
                v = acc.get(fw)
                acc[fw] = cs if v is None else v + cs
        return {w: c for w, c in acc.items() if not c.is_zero()}

    def reduce_state(self, state):
        """Express a state in quotient basis words only; idempotent."""
        return ChiralState(self.field, self.n, self.reduce_terms(state.terms))

    def is_zero_state(self, state):
        return not self.reduce_terms(state.terms)

    # -- relation instances ----------------------------------------------

    def relation_instances(self, row_content, flavor_content):
        """The R1/R2/R3 and R5 instances of the block chain, word by word,
        as an iterator; none holds dead words only (see qzm.fock).  Builds
        work from sub-blocks (``build_block``) and the certificate from
        ``qzm.certificate.chain_rows`` instead."""
        field, n, h = self.field, self.n, self.h
        levels = chain_levels(row_content, flavor_content)
        level_words = _level_words(n, levels)
        for ws in level_words:
            yield from exchange_rows(field, n, h, ws)
        for ws in level_words[1:]:
            yield from determinant_rows(field, n, h, ws)

    def certify(self, bb):
        """The exact certificate for an echelon form computed elsewhere
        (a cache record): its basis words and stored pivots are distinct
        live reps of the chain, so R2/R3 hold, its tails name basis words
        only, and, each other live rep a pivot with the empty tail, every
        row of ``qzm.certificate.chain_rows`` reduces to zero."""
        from .certificate import chain_rows     # builds never need it
        columns, rows = chain_rows(self.field, self.n, self.h, bb.key)
        index, free = {w: j for j, w in enumerate(columns)}, bb._free
        if len(free) != bb.dim or not index.keys() >= free.keys():
            return False
        rref = {j: {} for j, w in enumerate(columns) if w not in free}
        for p, tail in bb.rref.items():     # each a column, no basis word
            if index.get(p) not in rref or any(t not in free for t, _ in tail):
                return False
            rref[index[p]] = {index[t]: s for t, s in tail}
        return not any(_reduce_row(row, rref) for row in rows)


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
