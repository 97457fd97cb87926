"""Class-coordinate elimination against word-level elimination.

``build_block`` eliminates over R2/R3 commutation classes and never
streams the two-term rows.  The oracle here eliminates every relation
instance, R2/R3 included, over every live word with the same incremental
Gauss-Jordan, and requires every live word to reduce identically.
"""

import hashlib
import json
import os

import pytest

from qzm import cli
from qzm.basis import (BlockBasis, FockContext, _compositions, _insert_row,
                       _level_words, chain_levels, commutation_classes)
from qzm.cache import _encode_block
from qzm.fock import word_from_letters, word_is_dead


def word_level_reductions(ctx, key):
    """Every live word of the block chain -> its reduction {word: Scalar}."""
    n, h, one = ctx.n, ctx.h, ctx.field.one
    words = [w for ws in _level_words(n, chain_levels(*key)) for w in ws
             if not word_is_dead(n, h, w)]
    index = {w: i for i, w in enumerate(words)}
    rref, containing = {}, {}
    for inst in ctx.relation_instances(*key):
        row = {}
        for w, c in inst.terms.items():
            j = index.get(w)
            if j is not None:
                row[j] = row[j] + c if j in row else c
        row = {j: c for j, c in row.items() if not c.is_zero()}
        if row:
            _insert_row(row, rref, containing)
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


def fprime_context(monkeypatch, n, k):
    made = []

    def context(cfg, generic):
        made.append(real(cfg, generic))
        return made[-1]

    real = cli._context
    monkeypatch.setattr(cli, "_context", context)
    cli.run(["fprime", "--n", str(n), "--k", str(k), "--format", "json",
             "--out", os.devnull])
    [ctx] = made
    return ctx


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1)])
def test_fprime_blocks_match_word_level(monkeypatch, n, k):
    ctx = fprime_context(monkeypatch, n, k)
    assert ctx._blocks
    assert_blocks_match_word_level(ctx, list(ctx._blocks))


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


def _altered(bb, rref=None, where=None):
    return BlockBasis(bb.key, bb.field, bb.columns, where or bb.where,
                      rref or bb.rref, bb.total_words, bb.live_words)


def test_certificate_rejects_an_altered_block(ctx22):
    """certify accepts a built block, and rejects it after one tail scalar
    changes and after one class exponent changes (the R2/R3 part)."""
    bb = ctx22.block_basis((2, 1), (1, 2))
    assert ctx22.certify(bb)
    lead = next(j for j, tail in bb.rref.items() if tail)
    tail = dict(bb.rref[lead])
    t = next(iter(tail))
    tail[t] = tail[t] + ctx22.field.one
    assert not ctx22.certify(_altered(bb, rref={**bb.rref, lead: tail}))
    w, (j, e) = next((w, loc) for w, loc in bb.where.items()
                     if bb.columns[loc[0]] != w and bb.reduce_word(w))
    assert not ctx22.certify(_altered(bb, where={**bb.where, w: (j, e + 1)}))


def test_generic_blocks_match_word_level(gctx2):
    keys = [(rc, fc) for t in range(1, 5) for rc in _compositions(t, 2)
            for fc in _compositions(t, 2)]
    assert_blocks_match_word_level(gctx2, keys)


def test_class_exponents():
    """w = q^E rep: R2 swaps cost nothing, an R3 swap of a larger flavor
    past a smaller one costs q^1, and the rep is the last word in the
    right-to-left order."""
    n = 2
    a11, a12, a21 = (word_from_letters(n, [rf]) for rf in
                     ((1, 1), (1, 2), (2, 1)))
    words = sorted([a11 + a12, a12 + a11], key=lambda w: w[::-1])
    reps, where, conflicts = commutation_classes(n, None, words)
    assert reps == [a11 + a12] and conflicts == 0
    assert where == {a11 + a12: (a11 + a12, 0), a12 + a11: (a11 + a12, 1)}
    words = sorted([a21 + a11 + a11, a11 + a21 + a11, a11 + a11 + a21],
                   key=lambda w: w[::-1])
    # the words ending in a row-2 letter are dead, and so is their class
    reps, where, conflicts = commutation_classes(n, None, words)
    assert reps == [] and conflicts == 0
    assert where == {a21 + a11 + a11: None, a11 + a21 + a11: None}


# sha256 of the canonical JSON of every block record with 1 to max_letters
# letters, in the order block_records_digest visits them
PINNED_RECORDS = {
    "gctx2": (6, 139,
              "964d46b49eed6df8abb9215c5267209c9fa718216c3de08c0ccd60549a0e80b8"),
    "gctx3": (4, 370,
              "a251ccb115acd9e74e3bbe63f0e4ba11b5dc14a3a55490f511bf9b76b1ad6307"),
    "ctx32": (4, 370,
              "95e7f62c441d995fde3f766e455fb76fecda0924f42ca18f430f35cab75f9371"),
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
                          _encode_block(ctx, ctx.block_basis(rc, fc))]
                h.update(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")).encode())
                h.update(b"\n")
                count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_block_records_are_pinned(request, name):
    """Every echelon form, tail scalar and class exponent of the small
    blocks, in the generic field for n=2 and n=3 and at root of unity for
    (n, k) = (3, 2), stays bit for bit what it was.  The reduced echelon
    form is unique, so a faster elimination or scalar kernel must not move
    these digests; a change to the relation set does, and must update
    PINNED_RECORDS in the same change."""
    max_letters, blocks, digest = PINNED_RECORDS[name]
    ctx = request.getfixturevalue(name)
    assert block_records_digest(ctx, max_letters) == (blocks, digest)
