"""Quotient bases of the chiral Fock modules by exact sparse elimination.

Words grade by (row content, flavor content): every relation template
preserves both except the determinant, which links a class to the one with
one letter of each row and flavor removed.  A *block* is such a class
together with its determinant-linked descendants; blocks are eliminated
independently, which is what keeps desk-scale runs cheap.

The columns of a block are commutation classes, not words.  R2 (rows
differ, same flavor) and R3 (same row, flavors differ) make the words of
one content a partially commutative (trace) monoid: every word is a unit
q^E times its class's representative, so each live class is one column and
the two-term rows are never streamed.  A class dies with any of its words
that the vacuum-annihilation or h-th power rows kill outright (an O(1)
predicate, in place of one-term pivot rows).  The three-term exchange rows
and the determinant rows are mapped term by term onto columns, exact
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


def commutation_classes(n, h, words):
    """Group one chain level's words into R2/R3 commutation classes.

    Two adjacent letters that share exactly one of row or flavor commute up
    to a unit: R2 swaps them with factor 1, R3 (same row) with q^eps.  A
    weighted union-find over these swaps writes each word as w = q^E rep,
    where rep is the class's last word in ``words`` (the elimination
    order), the one word of the class that elimination leaves free.  A
    class is dead when one of its words is ``word_is_dead``, or when two
    paths give a word different exponents (compared mod 2h in root mode):
    then (q^a - q^b) rep = 0 forces rep = 0.

    Returns (reps, where, conflicts): the live classes' reps in order, a
    map from each word that is not ``word_is_dead`` to its (rep, E), or to
    None when its class is dead, and the number of classes a disagreeing
    cycle killed.
    """
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))
    pot = [0] * len(words)          # words[i] = q^pot[i] * words[parent[i]]
    killed = [word_is_dead(n, h, w) for w in words]
    dead = killed[:]                # per root: the class is dead
    period = None if h is None else 2 * h
    conflicts = 0

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        e = 0
        for j in reversed(path):
            e += pot[j]
            pot[j] = e
            parent[j] = i
        return i, e

    for i, w in enumerate(words):
        for p in range(len(w) - 1):
            x, y = w[p], w[p + 1]
            # each swap once, from the word with the larger letter left;
            # then a same-row swap has eps = +1
            if x <= y or (x // n == y // n) == (x % n == y % n):
                continue
            j = index[w[:p] + bytes((y, x)) + w[p + 2:]]
            e = int(x // n == y // n)           # words[i] = q^e words[j]
            ri, ei = find(i)
            rj, ej = find(j)
            d = e + ej - ei                     # root ri = q^d root rj
            if ri == rj:
                if d if period is None else d % period:
                    conflicts += not dead[ri]
                    dead[ri] = True
            elif ri < rj:                       # the later word stays root
                parent[ri], pot[ri] = rj, d
                dead[rj] = dead[rj] or dead[ri]
            else:
                parent[rj], pot[rj] = ri, -d
                dead[ri] = dead[ri] or dead[rj]

    where = {}
    for i, w in enumerate(words):
        if not killed[i]:
            r, e = find(i)
            where[w] = None if dead[r] else (words[r], e)
    reps = [w for i, w in enumerate(words) if parent[i] == i and not dead[i]]
    return reps, where, conflicts


class BlockBasis:
    """Reduction data for one (row content, flavor content) block chain.

    Columns are the live commutation classes, named by their reps in
    elimination order.  ``where`` maps every word of a live class to
    (column, exponent E) with w = q^E rep; ``rref`` maps a pivot column to
    its tail {column: Scalar} over free columns.  ``live_words`` counts the
    words that are not ``word_is_dead``, dead classes included.
    """

    __slots__ = ("key", "field", "columns", "where", "rref", "total_words",
                 "live_words", "basis_words", "dim")

    def __init__(self, key, field, columns, where, rref, total_words,
                 live_words):
        self.key = key
        self.field = field
        self.columns = columns
        self.where = where
        self.rref = rref
        self.total_words = total_words
        self.live_words = live_words
        self.basis_words = [w for j, w in enumerate(columns) if j not in rref]
        self.dim = len(self.basis_words)

    def reduce_word(self, w):
        """The word as a combination of basis words: tuple of (word, Scalar),
        a None scalar meaning one; () for a word of a dead class."""
        loc = self.where.get(w)
        if loc is None:
            return ()
        j, e = loc
        tail = self.rref.get(j)
        unit = self.field.q_power(e) if e else None
        if tail is None:
            return ((self.columns[j], unit),)
        cols = self.columns
        if unit is None:
            return tuple((cols[t], s) for t, s in tail.items())
        return tuple((cols[t], s * unit) for t, s in tail.items())


def build_block(field, n, h, eps_sign, row_content, flavor_content, budget):
    key = (tuple(row_content), tuple(flavor_content))
    levels = chain_levels(*key)
    total = sum(class_size(r, f) for r, f in levels)
    if total > budget:
        raise BudgetExceeded(key, total, budget)

    level_words = _level_words(n, levels)
    columns = []
    where = {}
    live = 0
    for ws in level_words:
        reps, classes, _ = commutation_classes(n, h, ws)
        live += len(classes)
        col = {}
        for rep in reps:
            col[rep] = len(columns)
            columns.append(rep)
        for w, loc in classes.items():
            if loc is not None:
                where[w] = (col[loc[0]], loc[1])

    rref = {}
    containing = {}
    seen = set()

    def insert_instances(instances):
        for inst in instances:
            row = {}
            for w, c in inst.terms.items():
                loc = where.get(w)
                if loc is None or c.is_zero():
                    continue
                j, e = loc
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

    vac = where.get(b"")
    if vac is not None and vac[0] in rref:
        raise RelationInconsistency(
            f"vacuum vector collapsed while eliminating block {key}")
    return BlockBasis(key, field, columns, where, rref, total, live)


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
            red = bb.reduce_word(w)
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
        for inst in self.relation_instances(*bb.key):
            acc = _reduce_terms(inst.terms, bb.reduce_word)
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
