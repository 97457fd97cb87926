"""Block builds against row elimination and word-level elimination.

``build_block`` eliminates a block's relation rows over A, the letters
times its one-letter sub-blocks' basis words, and lists no words.  Two
oracles check it: one eliminates every row of ``chain_rows`` (one per
prefix rep, window or split, and suffix rep) over every live class and
must give the same record of each live rep's reduction; the other
eliminates every relation instance, R2/R3 included, over
every live word with the same incremental Gauss-Jordan, and every live
word must reduce identically.  A weighted union-find over the swaps is the
oracle for ``class_rep``, which is in turn the oracle for the rep search,
and brute force over the words is the oracle for ``live_count``.
"""

import hashlib
import json
import os
import random
from itertools import product

import pytest

from qzm import basis, certificate, cli
from qzm.basis import (FockContext, _compositions, _insert_row, _level_words,
                       block_coordinates, chain_levels, class_rep, class_size,
                       live_count)
from qzm.cache import DiskCache, _encode_word
from qzm.certificate import (_alphabet, _live_reps, _reps_by_content,
                             chain_rows)
from qzm.fock import (class_words, word_from_letters, word_is_dead,
                      word_sort_key)
from qzm.reports import strip_timing


def commutation_classes(n, h, words):
    """Group one chain level's words into R2/R3 commutation classes.

    Two adjacent letters that share exactly one of row or flavor commute up
    to a unit: R2 swaps them with factor 1, R3 (same row) with q^eps.  A
    weighted union-find over these swaps writes each word as w = q^E rep,
    where rep is the class's last word in ``words`` (the elimination
    order).  A class is dead when one of its words is ``word_is_dead``, or
    when two paths give a word different exponents (compared mod 2h in
    root mode): then (q^a - q^b) rep = 0 forces rep = 0.

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


def word_level_reductions(ctx, key):
    """Every live word of the block chain -> its reduction {word: Scalar}."""
    n, h, one = ctx.n, ctx.h, ctx.field.one
    words = [w for ws in _level_words(n, chain_levels(*key)) for w in ws
             if not word_is_dead(n, h, w)]
    index = {w: i for i, w in enumerate(words)}
    rref = {}
    for inst in ctx.relation_instances(*key):
        row = {}
        for w, c in inst.terms.items():
            j = index.get(w)
            if j is not None:
                row[j] = row[j] + c if j in row else c
        row = {j: c for j, c in row.items() if not c.is_zero()}
        if row:
            _insert_row(row, rref)
    out = {}
    for w, i in index.items():
        tail = rref.get(i)
        out[w] = ({w: one} if tail is None
                  else {words[t]: s for t, s in tail.items()})
    return out


def assert_blocks_match_word_level(ctx, keys):
    one = ctx.field.one
    for key in keys:
        bb = ctx.block_basis(*key)
        expected = word_level_reductions(ctx, key)
        assert bb.live_words == len(expected)
        for w, red in expected.items():
            got = {fw: one if s is None else s for fw, s in bb.reduce_word(w)}
            assert got == red, (key, w)
        # no class was killed by exponents that disagree around a cycle
        for ws in _level_words(ctx.n, chain_levels(*key)):
            assert commutation_classes(ctx.n, ctx.h, ws)[2] == 0


def command_contexts(monkeypatch, args):
    """The contexts that one CLI command made."""
    made = []

    def context(cfg, generic):
        made.append(real(cfg, generic))
        return made[-1]

    real = cli._context
    monkeypatch.setattr(cli, "_context", context)
    cli.run(args + ["--format", "json", "--out", os.devnull])
    return made


def fprime_context(monkeypatch, n, k):
    [ctx] = command_contexts(monkeypatch,
                             ["fprime", "--n", str(n), "--k", str(k)])
    return ctx


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1)])
def test_fprime_blocks_match_word_level(monkeypatch, n, k):
    ctx = fprime_context(monkeypatch, n, k)
    assert ctx._blocks
    assert_blocks_match_word_level(ctx, list(ctx._blocks))


def test_reductions_call_no_class_rep(monkeypatch, tmp_path):
    """No reduction calls ``class_rep``: with it raising, three commands
    give the reports of an unpatched run, after ``strip_timing``."""
    commands = [["fprime", "--n", "3", "--k", "1"],
                ["check-w", "--n", "3", "--k", "2", "--i", "2"],
                ["verify-algebra", "--n", "2", "--k", "2"]]

    def reports():
        out = []
        for argv in commands:
            path = tmp_path / "report.json"
            code = cli.run(argv + ["--format", "json", "--out", str(path)])
            out.append((code, strip_timing(json.loads(path.read_text()))))
        return out

    expected = reports()

    def refuse(*args):
        raise AssertionError("class_rep called")

    monkeypatch.setattr(basis, "class_rep", refuse)
    assert reports() == expected


@pytest.mark.parametrize("n,k", [(3, 1), (2, 7)])
def test_context_reduces_as_its_blocks(monkeypatch, n, k):
    """The context reduces a v as a times its memoised reduction of v; each
    live word of every block's top content reduces as the block reduces
    it."""
    ctx = fprime_context(monkeypatch, n, k)
    for key, bb in list(ctx._blocks.items()):
        for w in class_words(n, *key):
            if not word_is_dead(n, ctx.h, w):
                assert ctx.reduce_word(w) == bb.reduce_word(w), (key, w)


def test_context_asks_for_one_block_per_miss(monkeypatch):
    """A ``_wred`` miss on a live word that is no coordinate of its block
    asks the context for that one block: the suffixes reduce through the
    block's ``subs``, not through ``block_basis``."""
    ctx = command_contexts(monkeypatch, ["verify-algebra", "--n", "3",
                                         "--k", "2"])[0]
    n = ctx.n
    key, bb, w = next((key, bb, w) for key, bb in ctx._blocks.items()
                      for w in class_words(n, *key)
                      if not word_is_dead(n, ctx.h, w) and w not in bb.rref
                      and w not in bb.basis_words)
    assert w not in bb.rref and w not in bb.basis_words
    ctx._wred.clear()
    asked = []
    real = ctx.block_basis

    def block_basis(*content):
        asked.append(content)
        return real(*content)

    monkeypatch.setattr(ctx, "block_basis", block_basis)
    assert ctx.reduce_word(w) == bb.reduce_word(w)
    assert asked == [key]


def test_subs_are_the_context_blocks(monkeypatch, tmp_path):
    """Every block's ``subs[a]`` is the object the context holds for the
    content c - a, whether the blocks were built (a cold ``fprime`` run)
    or loaded (a warm one, from that run's cache)."""
    argv = ["fprime", "--n", "3", "--k", "1", "--cache-dir", str(tmp_path)]
    cold = command_contexts(monkeypatch, argv)
    warm = command_contexts(monkeypatch, argv)
    assert warm[0].stats["blocks_built"] == 0 < warm[0].stats["blocks_loaded"]
    for ctx in cold + warm:
        n = ctx.n
        for (r, f), bb in ctx._blocks.items():
            assert bb.subs.keys() == {a for a in range(n * n)
                                      if r[a // n] and f[a % n]}
            for a, sub in bb.subs.items():
                i, b = divmod(a, n)
                less = (r[:i] + (r[i] - 1,) + r[i + 1:],
                        f[:b] + (f[b] - 1,) + f[b + 1:])
                assert sub is ctx._blocks[less], ((r, f), a)


class BlockBasis:
    """A block in class coordinates, as the oracles record it: its basis
    words, and each other live rep of the chain with its reduction, a tuple
    of (basis word, Scalar), all in column order (``word_sort_key``)."""

    def __init__(self, key, field, basis_words, rref, total_words, live_words):
        self.key = key
        self.field = field
        self.basis_words = basis_words
        self.rref = rref
        self.total_words = total_words
        self.live_words = live_words
        self.dim = len(basis_words)


def _encode_block(ctx, bb):
    """The block in class coordinates: the basis words and the echelon
    form over the class reps, in the block's order (``word_sort_key``);
    the record format of schema qzm-basis/5."""
    n = ctx.n
    rows = [[_encode_word(n, lead),
             [[_encode_word(n, t), s.encode()] for t, s in tail]]
            for lead, tail in bb.rref.items()]
    return {
        "flavor_content": list(bb.key[1]),
        "total_words": bb.total_words,
        "live_words": bb.live_words,
        "dim": bb.dim,
        "basis": [_encode_word(n, w) for w in bb.basis_words],
        "rows": rows,
    }


def eliminate_chain_rows(ctx, key):
    """The block as eliminating every row of ``chain_rows`` gives it, over
    every live class of the chain and without sub-blocks, with every pivot
    stored, those with the empty tail included."""
    levels = chain_levels(*key)
    columns, rows = chain_rows(ctx.field, ctx.n, ctx.h, key)
    rref = {}
    for row in rows:
        _insert_row(row, rref)
    return BlockBasis(key, ctx.field,
                      [w for j, w in enumerate(columns) if j not in rref],
                      {columns[j]: tuple((columns[t], s)
                                         for t, s in sorted(rref[j].items()))
                       for j in sorted(rref)},
                      sum(class_size(r, f) for r, f in levels),
                      sum(live_count(ctx.n, ctx.h, r, f, {}) for r, f in levels))


def full_record(ctx, bb):
    """The block's record in class coordinates: its basis words, and each
    other live rep of the chain with its reduction through the block, the
    empty one included."""
    columns, _ = chain_rows(ctx.field, ctx.n, ctx.h, bb.key)
    free = set(bb.basis_words)
    assert free <= set(columns), bb.key
    rref = {w: bb.reduce_word(w) for w in columns if w not in free}
    return _encode_block(ctx, BlockBasis(bb.key, bb.field, bb.basis_words,
                                         rref, bb.total_words, bb.live_words))


def assert_blocks_match_row_elimination(ctx, keys):
    for key in keys:
        assert full_record(ctx, ctx.block_basis(*key)) == \
            _encode_block(ctx, eliminate_chain_rows(ctx, key)), key


@pytest.mark.parametrize("n,k,letters", [(2, 1, 7), (2, 2, 7), (3, 1, 5),
                                         (3, 2, 5), (4, 1, 4), (2, None, 6),
                                         (3, None, 4)])
def test_blocks_match_row_elimination(n, k, letters):
    """Every block up to the given number of letters, built in a fresh
    context from its sub-blocks, has the record that eliminating the rows
    of its whole chain gives: at roots of unity, where R4 kills classes,
    and in the generic field."""
    ctx = FockContext(n, generic=True) if k is None else FockContext(n, k)
    assert_blocks_match_row_elimination(ctx, small_keys(n, letters))


def test_largest_32_block_matches_row_elimination():
    """The largest block of fprime (3,2): 29 472 words, 2 275 columns."""
    assert_blocks_match_row_elimination(FockContext(3, 2),
                                        [((3, 3, 1), (3, 2, 2))])


def test_builds_use_no_chain_rows(monkeypatch):
    """Builds work from sub-blocks: every block of fprime (3,1) builds in
    a fresh context with the certificate's row search patched to raise."""
    keys = list(fprime_context(monkeypatch, 3, 1)._blocks)

    def certificate_path(*args):
        raise AssertionError("a build reached the certificate's rows")

    monkeypatch.setattr(certificate, "chain_rows", certificate_path)
    monkeypatch.setattr(certificate, "_reps_by_content", certificate_path)
    ctx = FockContext(3, 1)
    for key in keys:
        ctx.block_basis(*key)
    assert ctx.stats["blocks_built"] >= len(keys)


def test_builds_insert_only_rows_that_can_add_a_pivot(monkeypatch):
    """Every block of fprime (3,1), built in a fresh context, takes 453
    ``_insert_row`` calls in all: R2/R3 rows in one order only, R1 rows for
    the diagonal windows only, (row x < row y) == (flavor x < flavor y), no
    row once the quotient is zero, and no row for a pair whose sub-block
    has no basis word."""
    keys = list(fprime_context(monkeypatch, 3, 1)._blocks)
    building = []           # the builds in progress, innermost last
    calls = {}              # key -> _insert_row calls

    def counted(*args):
        calls[building[-1]] += 1
        return real_insert(*args)

    def build(ctx, row_content, flavor_content):
        building.append((row_content, flavor_content))
        calls[building[-1]] = 0
        try:
            return real_build(ctx, row_content, flavor_content)
        finally:
            building.pop()

    real_build, real_insert = basis.build_block, basis._insert_row
    monkeypatch.setattr(basis, "build_block", build)
    monkeypatch.setattr(basis, "_insert_row", counted)
    ctx = FockContext(3, 1)
    for key in keys:
        ctx.block_basis(*key)
    assert len(calls) == ctx.stats["blocks_built"] == len(keys)
    assert sum(calls.values()) == 453


def per_word_certificate(ctx, bb):
    """Every per-word relation instance of the block chain, R2/R3 included,
    reduces to zero through ``bb`` alone."""
    memo = {}
    for inst in ctx.relation_instances(*bb.key):
        acc = {}
        for w, c in inst.terms.items():
            for fw, s in bb.reduce_word(w, memo):
                cs = c if s is None else c * s
                acc[fw] = acc[fw] + cs if fw in acc else cs
        if any(not c.is_zero() for c in acc.values()):
            return False
    return True


@pytest.mark.parametrize("args", [["fprime", "--n", "2", "--k", "7"],
                                  ["check-w", "--n", "3", "--k", "2",
                                   "--i", "2"]])
def test_built_blocks_pass_the_certificate(monkeypatch, args):
    """One row per (prefix rep, window, suffix rep) spans every relation
    instance: each built echelon form passes certify, which reduces those
    rows, and reduces each per-word instance of the chain, R2/R3 included,
    to zero."""
    built = [(ctx, bb) for ctx in command_contexts(monkeypatch, args)
             for bb in ctx._blocks.values()]
    assert built
    for ctx, bb in built:
        assert ctx.certify(bb), bb.key
        assert per_word_certificate(ctx, bb), bb.key


def assert_every_instance_touches_a_live_ending(ctx, keys):
    """No one-term instance, and none whose words all end in a row >= 2
    letter: those hold dead words only."""
    for key in keys:
        for inst in ctx.relation_instances(*key):
            assert len(inst.terms) > 1, (key, inst)
            assert any(not w or w[-1] < ctx.n for w in inst.terms), (key, inst)


def test_fprime_instances_touch_a_live_ending(monkeypatch):
    ctx = fprime_context(monkeypatch, 3, 1)
    assert_every_instance_touches_a_live_ending(ctx, list(ctx._blocks))


def test_sweep_instances_touch_a_live_ending(ctx32, gctx3):
    keys = [(rc, fc) for rc in cli._sweep_contents(3, cli.SWEEP_LETTERS)
            for fc in _compositions(sum(rc), 3)]
    for ctx in (ctx32, gctx3):
        assert_every_instance_touches_a_live_ending(ctx, keys)


def _in_order(pairs):
    """(word, x) pairs sorted by word, in coordinate order."""
    return sorted(pairs, key=lambda wx: word_sort_key(wx[0]))


def altered(bb, rref):
    """The block with another echelon form over the same coordinates: the
    pivots are the keys of ``rref``, and the other coordinates are free."""
    free = (bb.rref.keys() | set(bb.basis_words)) - rref.keys()
    return basis.BlockBasis(bb.key, bb.field, bb.subs,
                            dict(_in_order(rref.items())),
                            sorted(free, key=word_sort_key),
                            bb.total_words, bb.live_words)


def test_certificate_rejects_an_altered_block(ctx22):
    """certify accepts a built block, and rejects it after one tail scalar
    changes, when a tail names a pivot, or when a pivot is read as a basis
    word."""
    bb = ctx22.block_basis((2, 1), (1, 2))
    assert ctx22.certify(bb)
    lead = next(w for w, red in bb.rref.items() if red)
    (t, s), *rest = bb.rref[lead]
    other = next(w for w in bb.rref if w != lead)
    for red in ([(t, s + ctx22.field.one), *rest], [(other, s), *rest]):
        assert not ctx22.certify(altered(bb, {**bb.rref,
                                              lead: tuple(_in_order(red))}))
    assert not ctx22.certify(altered(bb, {w: red for w, red in
                                          bb.rref.items() if w != lead}))


def test_certificate_rejects_a_dropped_column(ctx22, tmp_path):
    """A block that reads a live class as dead, its basis word made a pivot
    with the empty tail and the tails without it, still reduces every
    per-word instance to zero.  certify passes an extra pivot by design,
    so it passes this block; ``cache validate`` compares its record with a
    fresh build and quarantines it."""
    bb = ctx22.block_basis((2, 1), (1, 2))
    free = bb.basis_words[0]
    rref = {w: tuple([(t, s) for t, s in red if t != free])
            for w, red in bb.rref.items()}
    dropped = altered(bb, {**rref, free: ()})
    assert dropped.dim == bb.dim - 1
    assert per_word_certificate(ctx22, dropped)
    assert ctx22.certify(dropped)
    cache = DiskCache(str(tmp_path / "cache"))
    cache.store_block(ctx22, bb.key, dropped)
    [(name, _)] = cache.records()
    out = tmp_path / "val.json"
    cli.run(["cache", "validate", "--cache-dir", cache.directory,
             "--format", "json", "--out", str(out)])
    [check] = json.loads(out.read_text())["checks"]
    assert (check["params"]["file"], check["result"], check["detail"]) == \
        (name, "fail", "quarantined")
    assert os.listdir(cache.directory) == [name + ".quarantined"]


def test_blocks_keep_one_tail_per_pivot_coordinate(monkeypatch):
    """Over the 236 blocks of fprime (3,1) each pivot coordinate of A has
    a tail that names free coordinates only, and each of the 157
    zero-quotient blocks holds pivots with the empty tail alone.  The
    blocks hold 300 tails, 158 of them nonempty."""
    blocks = fprime_context(monkeypatch, 3, 1)._blocks.values()
    assert len(blocks) == 236
    for bb in blocks:
        assert all(not {t for t, _ in red} & bb.rref.keys()
                   for red in bb.rref.values())
    zero = [bb for bb in blocks if not bb.dim]
    assert len(zero) == 157
    assert all(not any(bb.rref.values()) for bb in zero)
    assert sum(len(bb.rref) for bb in blocks) == 300
    assert sum(bool(tail) for bb in blocks for tail in bb.rref.values()) == 158


def test_blocks_store_one_reduction_per_coordinate_word(monkeypatch):
    """Over the blocks of fprime (3,1) the pivot words of ``rref`` and the
    basis words partition A's coordinate words, each pivot maps to a tuple
    over basis words, and ``reduce_word`` returns that very tuple."""
    ctx = fprime_context(monkeypatch, 3, 1)
    for key, bb in ctx._blocks.items():
        words = block_coordinates(ctx, key)[1]
        assert sorted(bb.rref.keys() | set(bb.basis_words),
                      key=word_sort_key) == words
        assert len(bb.rref) + bb.dim == len(words), key
        for w, red in bb.rref.items():
            assert type(red) is tuple
            assert {t for t, _ in red} <= set(bb.basis_words), (key, w)
            assert bb.reduce_word(w) is red


def _echelon_form(rows):
    rref = {}
    for row in rows:
        _insert_row(dict(row), rref)
    return rref


@pytest.mark.parametrize("n,k", [(3, 1), (2, 7)])
def test_echelon_form_ignores_row_order(monkeypatch, n, k):
    """Inserting the ``chain_rows`` of fprime's largest blocks of nonzero
    dimension in ascending order of their least column and in two shuffled
    orders gives one reduced echelon form, whose tails name no pivot: each
    new pivot is substituted into every tail that names it."""
    ctx = fprime_context(monkeypatch, n, k)
    blocks = sorted((bb for bb in ctx._blocks.values() if bb.dim),
                    key=lambda bb: -bb.total_words)[:3]
    for bb in blocks:
        _, rows = chain_rows(ctx.field, n, ctx.h, bb.key)
        rows = sorted(rows, key=min)
        rref = _echelon_form(rows)
        assert len(rref) > 1, bb.key
        assert all(not tail.keys() & rref.keys() for tail in rref.values())
        for seed in (1, 2):
            random.Random(seed).shuffle(rows)
            assert _echelon_form(rows) == rref, (bb.key, seed)


def test_generic_blocks_match_word_level(gctx2):
    assert_blocks_match_word_level(gctx2, small_keys(2, 4))


def test_h3_blocks_match_word_level():
    """n=2 at h = 3 up to 5 letters: blocks whose classes die by an h-th
    power."""
    assert_blocks_match_word_level(FockContext(2, 1), small_keys(2, 5))


def test_class_exponents():
    """w = q^E rep: R2 swaps cost nothing, an R3 swap of a larger flavor
    past a smaller one costs q^1, and the rep is the last word in the
    right-to-left order."""
    n = 2
    a11, a12, a21 = (word_from_letters(n, [rf]) for rf in
                     ((1, 1), (1, 2), (2, 1)))
    assert class_rep(n, a11 + a12) == (a11 + a12, 0)
    assert class_rep(n, a12 + a11) == (a11 + a12, 1)
    words = [a21 + a11 + a11, a11 + a21 + a11, a11 + a11 + a21]
    # one class, whose rep ends in a row-2 letter: the class is dead
    assert {class_rep(n, w) for w in words} == {(a11 + a11 + a21, 0)}
    assert word_is_dead(n, None, a11 + a11 + a21)
    # at h = 3 the word has no three equal letters in a row, but its class
    # and its rep do: dead too
    w = a11 + a12 + a11 + a11
    assert not word_is_dead(n, 3, w)
    assert class_rep(n, w) == (a11 + a11 + a11 + a12, 2)
    assert word_is_dead(n, 3, a11 + a11 + a11 + a12)


def assert_class_rep_matches_union_find(n, h, keys):
    """On every chain level of the blocks, class_rep gives the union-find's
    reps and exponents (mod 2h in root mode), and its dead classes are
    those whose rep is dead."""
    levels = sorted({lv for key in keys for lv in chain_levels(*key)})
    for ws in _level_words(n, levels):
        reps, where, conflicts = commutation_classes(n, h, ws)
        assert conflicts == 0
        classes = {w: class_rep(n, w) for w in ws}
        # a class is dead exactly when its rep is
        assert [w for w in ws if classes[w][0] == w
                and not word_is_dead(n, h, w)] == reps
        for w, loc in where.items():
            rep, e = classes[w]
            if loc is None:
                assert word_is_dead(n, h, rep), w
            else:
                assert loc[0] == rep and not word_is_dead(n, h, rep), w
                assert (loc[1] - e) % (2 * h) == 0 if h else loc[1] == e, w


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (2, 7)])
def test_class_rep_matches_union_find_on_fprime(monkeypatch, n, k):
    ctx = fprime_context(monkeypatch, n, k)
    assert_class_rep_matches_union_find(n, ctx.h, list(ctx._blocks))


@pytest.mark.parametrize("h,letters", [(None, 4), (3, 6)])
def test_class_rep_matches_union_find_n2(h, letters):
    """Generic n=2 up to 4 letters, and h = 3 up to 6 letters, where 45
    classes die by an h-th power that only some of their words show."""
    keys = [(rc, fc) for t in range(1, letters + 1)
            for rc in _compositions(t, 2) for fc in _compositions(t, 2)]
    assert_class_rep_matches_union_find(2, h, keys)


def sub_contents(key):
    """Every content at most the key's in each row and flavor count."""
    r, f = key
    return [(rs, fs) for rs in product(*(range(c + 1) for c in r))
            for fs in product(*(range(c + 1) for c in f))
            if sum(rs) == sum(fs)]


def has_run(w, h):
    """True when w has h equal letters in a row."""
    return h is not None and any(w[i:i + h] == w[i:i + 1] * h
                                 for i in range(len(w) - h + 1))


def assert_rep_search_matches_class_rep(n, h, keys):
    """On every sub-content of the blocks, the search yields the distinct
    class_rep of the content's words, less those with h equal letters in a
    row, in lexicographic order."""
    expected = {}
    for key in keys:
        alphabet = _alphabet(n, sum(key[0]))
        reps = _reps_by_content(alphabet, h, alphabet.pack(*key))
        subs = sub_contents(key)
        assert set(reps) <= {alphabet.pack(*sub) for sub in subs}
        for sub in subs:
            if sub not in expected:
                memo = {}
                expected[sub] = sorted(
                    rep for rep in {class_rep(n, w, memo)[0]
                                    for w in class_words(n, *sub)}
                    if not has_run(rep, h))
            assert reps.get(alphabet.pack(*sub), []) == expected[sub], (key, sub)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (2, 7)])
def test_rep_search_matches_class_rep_on_fprime(monkeypatch, n, k):
    ctx = fprime_context(monkeypatch, n, k)
    assert_rep_search_matches_class_rep(n, ctx.h, list(ctx._blocks))


def small_keys(n, letters):
    return [(rc, fc) for t in range(1, letters + 1)
            for rc in _compositions(t, n) for fc in _compositions(t, n)]


def test_rep_search_matches_class_rep_small_and_large():
    """Generic n=2 up to 4 letters; n=2 at h = 3 up to 6 letters, where the
    search drops reps with h equal letters in a row; and the largest block
    of fprime (3,2) (29 472 words, 2 275 columns) at h = 5."""
    assert_rep_search_matches_class_rep(2, None, small_keys(2, 4))
    assert_rep_search_matches_class_rep(2, 3, small_keys(2, 6))
    assert_rep_search_matches_class_rep(3, 5, [((3, 3, 1), (3, 2, 2))])


def test_live_count_matches_brute_force():
    """Every content up to 8 letters at n=2 and 6 letters at n=3."""
    for n, letters in ((2, 8), (3, 6)):
        memos = {h: {} for h in (3, 4, 5, None)}
        for t in range(letters + 1):
            for rc in _compositions(t, n):
                for fc in _compositions(t, n):
                    words = class_words(n, rc, fc)
                    for h, memo in memos.items():
                        live = sum(not word_is_dead(n, h, w) for w in words)
                        assert live_count(n, h, rc, fc, memo) == live, \
                            (n, h, rc, fc)


def test_fprime_live_counts_are_closed_form(monkeypatch):
    """No letter of a fprime (3,1) block can occur h times, so every build
    counts its live words in closed form and leaves the memo empty."""
    ctx = fprime_context(monkeypatch, 3, 1)
    assert ctx._blocks and not ctx._live


def test_live_count_runs_its_program_when_a_letter_can_reach_h():
    """At n = 2, h = 3 the letter (1, 1) can occur 3 times in the content
    ((3, 1), (3, 1)): the count fills the memo and matches brute force."""
    n, h, rc, fc = 2, 3, (3, 1), (3, 1)
    memo = {}
    live = sum(not word_is_dead(n, h, w) for w in class_words(n, rc, fc))
    assert live_count(n, h, rc, fc, memo) == live
    assert memo


def test_largest_33_chain_without_words():
    """The chain of the largest block of the (3,3) scan, at h = 6: its
    columns and live words come from the rep search and live_count, with
    no list of its 1 060 200 words."""
    n, h, key = 3, 6, ((4, 4, 1), (3, 3, 3))
    levels = chain_levels(*key)
    alphabet = _alphabet(n, sum(key[0]))
    reps = _reps_by_content(alphabet, h, alphabet.pack(*key))
    assert len(_live_reps(alphabet, reps, levels)) == 37309
    assert sum(live_count(n, h, r, f, {}) for r, f in levels) == 471300
    assert sum(class_size(r, f) for r, f in levels) == 1060200


def test_largest_33_block_keeps_only_its_rows():
    """The largest block of the (3,3) scan, built in a fresh context, keeps
    one tail per pivot of its 9 coordinates, where the column build stored
    10 263 tails, one per live rep with a nonempty reduction."""
    ctx = FockContext(3, 3, budget=2000000)
    bb = ctx.block_basis((4, 4, 1), (3, 3, 3))
    assert bb.dim == 1
    assert len(bb.rref) <= len(block_coordinates(ctx, bb.key)[1]) == 9


# sha256 of the canonical JSON of every block record with 1 to max_letters
# letters, in the order block_records_digest visits them
PINNED_RECORDS = {
    "gctx2": (6, 139,
              "3a11f416c7eb8a9d03a4dcab4be7df9afe6d9a0c5fa435633248a63df5cbc35b"),
    "gctx3": (4, 370,
              "9d660d64d0cf8bbe9afa8390133dbbf16a2bd4cc3cf1538065cb98e65e19eaea"),
    "ctx32": (4, 370,
              "e0e88689b97131d89b07b1c9e3cbc35c2ccb8ce73aaee09cf9f1fec911b65cc9"),
}


def block_records_digest(ctx, max_letters):
    """(blocks, sha256) over the cache records of every block of ctx with
    1 to max_letters letters, row content outer, flavor content inner."""
    h = hashlib.sha256()
    count = 0
    for total in range(1, max_letters + 1):
        for rc in _compositions(total, ctx.n):
            for fc in _compositions(total, ctx.n):
                record = [[list(rc), list(fc)],
                          full_record(ctx, ctx.block_basis(rc, fc))]
                h.update(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")).encode())
                h.update(b"\n")
                count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_block_records_are_pinned(request, name):
    """Every basis, echelon form and tail scalar of the small blocks, in
    the generic field for n=2 and n=3 and at root of unity for (n, k) =
    (3, 2), stays bit for bit what it was.  The reduced echelon
    form is unique, so a faster elimination or scalar kernel must not move
    these digests; a change to the relation set does, and must update
    PINNED_RECORDS in the same change."""
    max_letters, blocks, digest = PINNED_RECORDS[name]
    ctx = request.getfixturevalue(name)
    assert block_records_digest(ctx, max_letters) == (blocks, digest)
