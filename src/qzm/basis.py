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
O(1) predicate, in place of one-term pivot rows).  The three-term exchange
rows and the determinant rows are mapped term by term onto columns, exact
duplicate rows are dropped, and the rest go through incremental
Gauss-Jordan over the exact scalar field.

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
from functools import partial
from math import factorial

from . import fock
from .fock import (EPS_SIGN, ChiralState, class_words, determinant_rows,
                   exchange_rows, word_flavor_content, word_is_dead,
                   word_row_content)
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

def _insert_row(row, rref, containing):
    """Insert one relation row, maintaining a fully reduced echelon form.

    ``rref`` maps a pivot column to its tail {column: Scalar}, meaning the
    pivot equals the tail combination in the quotient; tails only hold
    non-pivot columns.  Returns the new pivot index, or None if the row was
    already in the span.  The row's entries are nonzero; the tails it
    takes in add free columns only, so one ascending pass over its pivot
    columns clears them all.
    """
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


def build_block(field, n, h, eps_sign, row_content, flavor_content, budget):
    key = (tuple(row_content), tuple(flavor_content))
    levels = chain_levels(*key)
    total = sum(class_size(r, f) for r, f in levels)
    if total > budget:
        raise BudgetExceeded(key, total, budget)

    level_words = _level_words(n, levels)
    # (rep, E) of the live words, for this build only.  A class is dead
    # exactly when its rep is (see class_rep), so the live reps are the
    # columns, and a dead word never needs its class.
    classes = {}
    columns = []
    live = 0
    for ws in level_words:
        for w in ws:
            if not word_is_dead(n, h, w):
                live += 1
                if class_rep(n, w, classes)[0] == w:
                    columns.append(w)
    index = {w: j for j, w in enumerate(columns)}

    rref = {}
    containing = {}
    seen = set()

    def insert_instances(instances):
        for inst in instances:
            row = {}
            for w, c in inst.terms.items():
                rep, e = classes.get(w, (None, 0))
                j = index.get(rep)
                if j is None or c.is_zero():
                    continue
                if e:
                    c = c * field.q_power(e)
                v = row.get(j)
                row[j] = c if v is None else v + c
            row = {j: c for j, c in row.items() if not c.is_zero()}
            if row:
                sig = frozenset(row.items())
                if sig not in seen:
                    seen.add(sig)
                    _insert_row(row, rref, containing)

    # three-term exchange rows, then determinant links; the two-term R2/R3
    # rows hold by construction of the columns
    for ws in level_words:
        insert_instances(exchange_rows(field, n, h, ws, mode="long"))
    for ws in level_words[1:]:
        insert_instances(determinant_rows(field, n, h, eps_sign, ws))

    if index.get(b"", -1) in rref:
        raise RelationInconsistency(
            f"vacuum vector collapsed while eliminating block {key}")
    return BlockBasis(key, field, columns, rref, total, live)


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
        if n < 2:
            raise UsageError("need n >= 2")
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
        if self.disk_cache is not None:
            bb = self.disk_cache.load_block(self, key)
            if bb is not None:
                self._blocks[key] = bb
                self.stats["blocks_loaded"] += 1
                return bb
        bb = build_block(self.field, self.n, self.h, self.eps_sign,
                         key[0], key[1], self.budget)
        self._blocks[key] = bb
        self.stats["blocks_built"] += 1
        if bb.total_words > self.stats["max_block_words"]:
            self.stats["max_block_words"] = bb.total_words
        if self.disk_cache is not None:
            self.disk_cache.store_block(self, key, bb)
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
        return ChiralState(self.field, self.n, state.chirality,
                           _reduce_terms(state.terms, self.reduce_word))

    def is_zero_state(self, state):
        return self.reduce_state(state).is_empty()

    # -- relation instances ----------------------------------------------

    def relation_instances(self, row_content, flavor_content):
        """The R1/R2/R3 and R5 instances of the block chain, as an iterator;
        none holds dead words only (see qzm.fock)."""
        field, n, h = self.field, self.n, self.h
        levels = chain_levels(row_content, flavor_content)
        level_words = _level_words(n, levels)
        for ws in level_words:
            yield from exchange_rows(field, n, h, ws)
        for ws in level_words[1:]:
            yield from determinant_rows(field, n, h, self.eps_sign, ws)

    def certify(self, bb):
        """The exact certificate for an echelon form eliminated elsewhere
        (a cache record): every relation instance of the block chain, R2/R3
        included, reduces to zero through ``bb`` alone."""
        reduce_word = partial(bb.reduce_word, memo={})
        for inst in self.relation_instances(*bb.key):
            acc = _reduce_terms(inst.terms, reduce_word)
            if any(not c.is_zero() for c in acc.values()):
                return False
        return True


def _reduce_terms(terms, reduce_word):
    """Sum c * reduce_word(w) over the (word, c) terms, as {basis word:
    Scalar}; entries that cancel are kept as zeros."""
    acc = {}
    for w, c in terms.items():
        for fw, s in reduce_word(w):
            cs = c if s is None else c * s
            v = acc.get(fw)
            acc[fw] = cs if v is None else v + cs
    return acc


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
