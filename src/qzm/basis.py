"""Quotient bases of the chiral Fock modules by exact sparse elimination.

Words grade by (row content, flavor content): every relation template
preserves both except the determinant, which links a class to the one with
one letter of each row and flavor removed.  A *block* is such a class
together with its determinant-linked descendants; blocks are eliminated
independently, which is what keeps desk-scale runs cheap.

Elimination is incremental Gauss-Jordan over the exact scalar field.  The
reduced row echelon form (and hence every quotient basis and reduction) is
uniquely determined by the relation span and the word order, so the result
is reproducible bit for bit no matter how rows are streamed in; rows are
still inserted sparsest-first for speed.  Words killed outright by the
vacuum-annihilation and h-th power rows are handled by an O(1) predicate
instead of explicit one-term pivot rows -- same echelon form, far fewer
columns.

The word order eliminates longer words toward shorter ones (so determinant
chains rewrite downward and the vacuum stays a basis word); within one
length it compares letter sequences right to left.

Barred classes satisfy identical templates in (row, flavor) terms, so
block bases are shared between chiralities.
"""

from __future__ import annotations

from math import factorial

from . import fock
from .fock import (EPS_SIGN, ChiralState, class_words, determinant_rows,
                   exchange_rows, single_word_rows, word_flavor_content,
                   word_is_dead, word_row_content)
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

    ``rref`` maps a pivot index to its tail {index: Scalar}, meaning the
    pivot word equals the tail combination in the quotient; tails only hold
    non-pivot indices.  Returns the new pivot index, or None if the row was
    already in the span.
    """
    while True:
        hits = [j for j in row if j in rref]
        if not hits:
            break
        hits.sort()
        for j in hits:
            c = row.pop(j, None)
            if c is None or c.is_zero():
                continue
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


class BlockBasis:
    """Reduction data for one (row content, flavor content) block chain."""

    __slots__ = ("key", "words", "index", "rref", "total_words", "live_words",
                 "basis_words", "dim")

    def __init__(self, key, words, index, rref, total_words):
        self.key = key
        self.words = words
        self.index = index
        self.rref = rref
        self.total_words = total_words
        self.live_words = len(words)
        self.basis_words = [w for w in words if index[w] not in rref]
        self.dim = len(self.basis_words)

    def reduce_word(self, w):
        """The word as a combination of basis words: tuple of (word, Scalar)."""
        idx = self.index[w]
        tail = self.rref.get(idx)
        if tail is None:
            return ((w, None),)          # None marks coefficient one
        words = self.words
        return tuple((words[t], s) for t, s in tail.items())


def build_block(field, n, h, eps_sign, row_content, flavor_content, budget):
    key = (tuple(row_content), tuple(flavor_content))
    levels = chain_levels(*key)
    total = sum(class_size(r, f) for r, f in levels)
    if total > budget:
        raise BudgetExceeded(key, total, budget)

    words = []
    index = {}
    level_words = _level_words(n, levels)
    for ws in level_words:
        for w in ws:
            if not word_is_dead(n, h, w):
                index[w] = len(words)
                words.append(w)

    rref = {}
    containing = {}

    def insert_instances(instances):
        for inst in instances:
            row = {}
            for w, c in inst.terms.items():
                j = index.get(w)
                if j is not None and not c.is_zero():
                    v = row.get(j)
                    row[j] = c if v is None else v + c
            row = {j: c for j, c in row.items() if not c.is_zero()}
            if row:
                _insert_row(row, rref, containing)

    # two-term exchange rows first, then three-term, then determinant links
    for ws in level_words:
        insert_instances(exchange_rows(field, n, h, ws, dedupe=True, mode="short"))
    for ws in level_words:
        insert_instances(exchange_rows(field, n, h, ws, dedupe=True, mode="long"))
    for ws in level_words[1:]:
        insert_instances(determinant_rows(field, n, h, eps_sign, ws, prune=True))

    if b"" in index and index[b""] in rref:
        raise RelationInconsistency(
            f"vacuum vector collapsed while eliminating block {key}")
    return BlockBasis(key, words, index, rref, total)


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
    A context is intended for single-threaded use (nothing here mutates
    shared global state).
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
        self.n = n
        self.eps_sign = eps_sign
        self.budget = budget
        self.disk_cache = disk_cache
        self._blocks = {}
        self._wred = {}
        self.stats = {"blocks_built": 0, "max_block_words": 0,
                      "blocks_loaded": 0}

    def mode(self):
        return GENERIC if self.h is None else ROOT

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
            red = bb.reduce_word(w)
        self._wred[w] = red
        return red

    def reduce_state(self, state):
        """Express a state in quotient basis words only; idempotent."""
        acc = {}
        zero = self.field.zero
        for w, c in state.terms.items():
            for fw, s in self.reduce_word(w):
                cs = c if s is None else c * s
                v = acc.get(fw)
                acc[fw] = cs if v is None else v + cs
        return ChiralState(self.field, self.n, state.chirality,
                           {w: c for w, c in acc.items() if not c.is_zero()})

    def is_zero_state(self, state):
        return self.reduce_state(state).is_empty()

    # -- relation instances ----------------------------------------------

    def relation_instances(self, row_content, flavor_content):
        """All relation instances of the block chain, as an iterator."""
        field, n, h = self.field, self.n, self.h
        levels = chain_levels(row_content, flavor_content)
        level_words = _level_words(n, levels)
        for ws in level_words:
            yield from single_word_rows(field, n, h, ws)
            yield from exchange_rows(field, n, h, ws)
        for ws in level_words[1:]:
            yield from determinant_rows(field, n, h, self.eps_sign, ws)


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
