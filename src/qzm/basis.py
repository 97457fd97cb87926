"""Quotient bases of the chiral Fock modules by exact sparse elimination.

Words grade by (row content, flavor content): every relation template
preserves both except the determinant, which links a class to the one with
one letter of each row and flavor removed.  A *block* is such a class
together with its determinant-linked descendants, its chain.

R2 (rows differ, same flavor) and R3 (same row, flavors differ) make the
words of one content a partially commutative (trace) monoid: every word is
a unit q^E times its class's representative, which ``class_rep`` computes
in closed form.  A class dies with any of its words that ``word_is_dead``
kills (R4, R6).  A block is built from its one-letter sub-blocks, with no
word listed: it is the reduced echelon form of its relation rows over A,
the letters times the sub-blocks' basis words (``build_block``), kept
keyed by A's words: one stored reduction per word of A.  Any other word
a v reduces as a times the sub-block's reduction of v, since the
relations are a left ideal; no reduction needs a rep.  The certificate for a block built
elsewhere is in qzm.certificate.

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
from math import factorial

from .fock import (State, class_words, determinant_blocks,
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
    the tail combination in the quotient.  Invariant: tails hold free
    columns only, never a pivot.  So the tails the row takes in add no
    pivot column, and one pass over its pivot columns, in any order, clears
    them all.  Returns the row: empty exactly when it was in the span."""
    for j in [j for j in row if j in rref]:
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


def _insert_row(row, rref):
    """Insert one relation row, keeping ``rref`` a fully reduced echelon
    form whose tails hold free columns only (see ``_reduce_row``).  The
    reduced row's least column becomes a pivot, and every tail that names
    it is reduced through the new pivot's tail, which holds free columns
    only.  Returns the new pivot, or None if the row was already in the
    span."""
    row = _reduce_row(row, rref)
    if not row:
        return None
    lead = min(row)
    cinv = row.pop(lead).invert()
    new = {lead: {t: -(s * cinv) for t, s in row.items()}}
    for tail in rref.values():
        if lead in tail:
            _reduce_row(tail, new)
    rref.update(new)
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

    ``subs`` maps each letter a of the content to the block of chain(c - a).
    A's coordinate words are a beta for each basis word beta of subs[a],
    and the vacuum when the chain reaches the empty content
    (``block_coordinates``).  ``rref`` is the relation rows' reduced
    echelon form over A, in ``word_sort_key`` order: each pivot coordinate
    word maps to its reduction, the tuple ``reduce_word`` returns, () when
    it is zero.  The free coordinates are the ``basis_words``, in that
    order, and ``_free`` maps each to its one-term reduction, so each
    coordinate's reduction is stored once.  ``live_words`` counts the words
    that are not ``word_is_dead``, dead classes included.
    """

    __slots__ = ("key", "field", "subs", "rref", "basis_words", "total_words",
                 "live_words", "dim", "_free")

    def __init__(self, key, field, subs, rref, basis_words, total_words,
                 live_words):
        self.key = key
        self.field = field
        self.subs = subs
        self.rref = rref
        self.basis_words = basis_words
        self.total_words = total_words
        self.live_words = live_words
        self.dim = len(basis_words)
        self._free = {w: ((w, field.one),) for w in basis_words}

    def reduce_word(self, w, memo=None):
        """The word as a combination of basis words: a tuple of (word,
        Scalar) in ``word_sort_key`` order, () when it is zero.  A
        coordinate word's is stored (``_free``, ``rref``); any other word
        a v is a (x) ``subs[a].reduce_word(v)``, a sum of the coordinates
        a beta's reductions, as the relations are a left ideal.  ``memo``
        holds the other words' reductions, keyed by the word at the top
        level (its own content) and by (block key, word) below; its owner,
        such as the context (``_wred``), decides how long it lives."""
        red = self._free.get(w) or self.rref.get(w)
        if red is not None:
            return red
        memo = {} if memo is None else memo
        mkey = w if len(w) == sum(self.key[0]) else (self.key, w)
        red = memo.get(mkey)
        if red is None:
            free, rref, prefix = self._free, self.rref, w[:1]
            sub = self.subs[w[0]].reduce_word(w[1:], memo)
            if len(sub) == 1:
                [(t, s)] = sub
                u = prefix + t
                red = tuple([(v, s * c) for v, c in free.get(u) or rref[u]])
            else:
                acc = {}
                for t, s in sub:
                    u = prefix + t
                    for v, c in free.get(u) or rref[u]:
                        sc = s * c
                        x = acc.get(v)
                        acc[v] = sc if x is None else x + sc
                red = tuple([(v, acc[v]) for v in sorted(acc, key=word_sort_key)
                             if not acc[v].is_zero()])
            memo[mkey] = red
        return red


def _image(subs, index, terms, memo):
    """The sum of c * w over the terms (w, c) in A's coordinates, which
    ``index`` numbers: a w is a (x) ``subs[a].reduce_word(w)``, and the
    vacuum its own coordinate."""
    row = {}
    for w, c in terms:
        for j, cs in ([(index[w[:1] + t], c * s)
                       for t, s in subs[w[0]].reduce_word(w[1:], memo)]
                      if w else [(index[w], c)]):
            v = row.get(j)
            row[j] = cs if v is None else v + cs
    return {j: c for j, c in row.items() if not c.is_zero()}


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


def block_coordinates(ctx, key):
    """(subs, words) of the block chain ``key``, as ``BlockBasis`` keeps
    them: the one-letter sub-blocks, got through ``ctx.block_basis``, and
    A's coordinate words in ``word_sort_key`` order."""
    (r, f), n = key, ctx.n
    subs = {}
    for a in range(n * n):
        i, b = divmod(a, n)
        if r[i] and f[b]:
            subs[a] = ctx.block_basis(r[:i] + (r[i] - 1,) + r[i + 1:],
                                      f[:b] + (f[b] - 1,) + f[b + 1:])
    words = [bytes((a,)) + w for a, sb in subs.items() for w in sb.basis_words]
    if not sum(chain_levels(*key)[-1][0]):
        words.append(b"")
    words.sort(key=word_sort_key)
    return subs, words


def chain_sizes(ctx, key):
    """(total_words, live_words) of the block chain ``key``, in closed form
    (``class_size``, ``live_count``)."""
    levels = chain_levels(*key)
    return (sum(class_size(r, f) for r, f in levels),
            sum(live_count(ctx.n, ctx.h, r, f, ctx._live) for r, f in levels))


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
                -q^eps(y, x) times x y - q^eps(x, y) y x; R1 only for the
                diagonal windows, (row x < row y) == (flavor x < flavor y)
      R4        a^h beta, in chain(c - h a) (root mode)
      R5        the ``determinant_blocks`` b beta plus ``determinant_bare``
                times beta, in chain(levels[1])
      R6        the letter x of row >= 2, when chain(c - x) holds the vacuum

    A term x w maps to x (x) ``block(c - x).reduce_word(w)``.  The
    elimination alone numbers A's coordinate words, in ``word_sort_key``
    order, and each row goes in with its least coordinate as pivot.  The free coordinates are the
    basis words: each basis word is some a beta (a v with v a pivot of its
    sub-block reduces to later words, so it is never free), and a pivot
    word reduces to later basis words, so it is a pivot over A too.  So
    this is the reduced echelon form that all relation instances give over
    all words, read on A.  R4 and R6 are needed here: they alone kill the
    coordinates a beta whose words are dead.  Of the 284 blocks up to 8
    letters at (n, k) = (2, 1), 61 kept a dead coordinate free without R4,
    ((3, 0), (3, 0)) among them, and 58 without R6, ((0, 1), (0, 1)) first.

    Why two R1 windows of four suffice: for rows r < s and flavors a < b,
    the four words W1 = (r,a)(s,b), W2 = (s,b)(r,a), W3 = (s,a)(r,b) and
    W4 = (r,b)(s,a) carry four R1 windows with the same suffix beta, so
    with the same P = p_r - p_s (read off ``sub.key[0]``: a determinant
    level below keeps every weight difference).  With [m] the q-integers,
    the diagonal windows W1 and W2 give the rows
      D1 = -[P+1] W1 + [P] W2 + q^-P W3,  D2 = -[P] W1 + [P-1] W2 + q^-P W4,
    and the anti-diagonal windows W3 and W4 the rows
      A1 = q^P W1 + [P-1] W3 - [P] W4,    A2 = q^P W2 + [P] W3 - [P+1] W4,
    all times beta.  So (A1, A2) = q^P M (D1, D2) with M = [[ [P-1], -[P] ],
    [ [P], -[P+1] ]], and det M = [P]^2 - [P-1][P+1] = 1 in Z[q, 1/q], so
    in both fields.  The anti-diagonal rows are in the span of the diagonal
    ones, for every beta; the span, and with it the unique reduced echelon
    form, is unchanged.  ``qzm.certificate.chain_rows`` keeps all four
    windows, so ``certify`` checks this independently.

    The rows stop once every coordinate is a pivot: the fully reduced
    tails then hold nothing and the quotient is zero.
    """
    key = (tuple(row_content), tuple(flavor_content))
    field, n, h, one = ctx.field, ctx.n, ctx.h, ctx.field.one
    levels = chain_levels(*key)
    subs, words = block_coordinates(ctx, key)
    index = {w: j for j, w in enumerate(words)}

    def rows():
        """The relation rows, each a list of terms (w, c)."""
        neg_q = ctx._neg_q
        for x, sx in subs.items():
            xi, xa = divmod(x, n)
            for y, sub in sx.subs.items():
                yi, ya = divmod(y, n)
                swap = xi == yi or xa == ya
                if y == x or not sub.dim or (
                        y < x if swap else (xi < yi) != (xa < ya)):
                    continue
                pairs = (exchange_terms(field, n, x, y, sub.key[0]) if not swap
                         else ((bytes((x, y)), one),
                               (bytes((y, x)), neg_q[epsilon(xa, ya)])))
                for beta in sub.basis_words:
                    yield [(p + beta, c) for p, c in pairs]
            low = sx if h else None     # R4: chain(c - h x), h - 1 below sx
            for _ in range(h - 1 if h else 0):
                low = low and low.subs.get(x)
            for beta in low.basis_words if low else ():
                yield [(bytes((x,)) * h + beta, one)]
            if x >= n and sx.basis_words[-1:] == [b""]:
                yield [(bytes((x,)), one)]
        lower = ctx.block_basis(*levels[1]) if len(levels) > 1 else None
        if lower and lower.dim:
            blocks = determinant_blocks(field, n)
            bare = determinant_bare(field, n, levels[1][0])
            for beta in lower.basis_words:
                yield [(b + beta, c) for b, c in blocks] + [(beta, bare)]

    rref, memo = {}, {}     # memo: reduce_word's, per build
    for terms in rows() if words else ():
        if row := _image(subs, index, terms, memo):
            _insert_row(row, rref)
            if len(rref) == len(words):
                break
    bb = BlockBasis(key, field, subs,
                    {words[j]: tuple([(words[t], s)
                                      for t, s in sorted(rref[j].items())])
                     for j in sorted(rref)},
                    [w for j, w in enumerate(words) if j not in rref],
                    *chain_sizes(ctx, key))
    if b"" in index and bb.basis_words[-1:] != [b""]:
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
# context: field + budget + caches
# ---------------------------------------------------------------------------

class FockContext:
    """Owns the field, the budget and all basis caches.

    Block construction is pure; the cache behaves as a get-or-compute map.
    A context is intended for single-threaded use, as its caches are not
    locked.  It empties its field's arithmetic memo (see qzm.scalars) when
    it is released, so the memo lives no longer than the context.
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
        self._wred = {}         # word -> reduce_word's result
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
        """Reduced form of one word: tuple of (basis word, Scalar) pairs.
        A dead word is zero; any other reduces in the block of its own
        content with ``_wred`` as memo (``BlockBasis.reduce_word``), so
        that ``_wred`` holds each word once, keyed by the word."""
        red = self._wred.get(w)
        if red is None:
            n = self.n
            if word_is_dead(n, self.h, w):
                red = ()
            else:
                bb = self.block_basis(word_row_content(n, w),
                                      word_flavor_content(n, w))
                red = bb.reduce_word(w, self._wred)
            self._wred[w] = red
        return red

    def reduce_terms(self, terms):
        """{word: Scalar} as {basis word: nonzero Scalar}: the zero test.
        Zero coefficients are skipped, so their words build no block."""
        acc = {}
        for w, c in terms.items():
            for fw, s in () if c.is_zero() else self.reduce_word(w):
                cs = c * s
                v = acc.get(fw)
                acc[fw] = cs if v is None else v + cs
        return {w: c for w, c in acc.items() if not c.is_zero()}

    def reduce_state(self, state):
        """Express a state in quotient basis words only; idempotent."""
        return State(self.field, self.n, self.reduce_terms(state.terms))

    def is_zero_state(self, state):
        return not self.reduce_terms(state.terms)

    # -- relation instances ----------------------------------------------

    def relation_instances(self, row_content, flavor_content):
        """The R1/R2/R3 and R5 instances of the block chain, word by word,
        as an iterator; none holds dead words only (see qzm.fock).  They
        serve the test oracles only: builds work from sub-blocks
        (``build_block``), the certificate from
        ``qzm.certificate.chain_rows``, and verify-algebra's sweep tests the
        same windows in place (``qzm.cli._instances_all_zero``)."""
        field, n, h = self.field, self.n, self.h
        levels = chain_levels(row_content, flavor_content)
        level_words = _level_words(n, levels)
        for ws in level_words:
            yield from exchange_rows(field, n, h, ws)
        for ws in level_words[1:]:
            yield from determinant_rows(field, n, h, ws)

    def certify(self, bb):
        """The exact certificate for a block built or loaded elsewhere (a
        cache record): its basis words are live reps of the chain, each of
        them reduces to itself through the block and every other live rep
        to basis words only, and every row of ``qzm.certificate.chain_rows``
        reduces to zero."""
        from .certificate import chain_rows     # builds never need it
        columns, rows = chain_rows(self.field, self.n, self.h, bb.key)
        index = {w: j for j, w in enumerate(columns)}
        free = {index.get(w) for w in bb.basis_words}
        if None in free:
            return False
        rref, one, memo = {}, self.field.one, {}
        for j, w in enumerate(columns):
            tail = {index.get(t): s for t, s in bb.reduce_word(w, memo)}
            if tail != {j: one} if j in free else not free >= tail.keys():
                return False
            if j not in free:
                rref[j] = tail
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
