import random

import pytest

from qzm import bilinears as bl, qalgebra as qa
from qzm.fock import State, word_is_dead
from qzm.scalars import UsageError


def word_state(ctx, letters):
    from qzm.fock import word_from_letters
    w = word_from_letters(ctx.n, letters)
    return State(ctx.field, ctx.n, terms={w: ctx.field.one})


def random_states(ctx, count, seed=11, letters=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = bytes(rng.randrange(ctx.n * ctx.n) for _ in range(letters))
        if not word_is_dead(ctx.n, ctx.h, w):
            out.append(State(ctx.field, ctx.n, terms={w: ctx.field.one}))
    return out


def test_split_completeness_free_level(ctx31, gctx3):
    for ctx in (ctx31, gctx3):
        for s in random_states(ctx, 6):
            for i, j in [(1, 2), (2, 3), (1, 1)]:
                for a in (1, 2, 3):
                    for b in (1, 2, 3):
                        assert bl.check_split_completeness(s, i, j, a, b)


def test_symmetry_relabeling_free_level(ctx31):
    for s in random_states(ctx31, 6):
        for i, j in [(1, 2), (3, 1)]:
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert bl.check_symmetry_relabeling(s, i, j, a, b)


def test_antisymmetric_diagonal_flavor_is_zero_operator(ctx31):
    assert bl.bilinear_terms(ctx31.field, 3, "A", 1, 2, 2, 2) == ()


def test_diagonal_row_A_vanishes_in_quotient(ctx21, ctx31):
    for ctx in (ctx21, ctx31):
        for s in random_states(ctx, 5):
            for i in range(1, ctx.n + 1):
                for a in range(1, ctx.n + 1):
                    for b in range(1, ctx.n + 1):
                        if a != b:
                            out = bl.apply_bilinear("A", i, i, a, b, s)
                            assert ctx.is_zero_state(out)


def test_dynamical_exchange_both_modes(ctx31, gctx3):
    for ctx in (ctx31, gctx3):
        for s in random_states(ctx, 8):
            for i, j in [(1, 2), (1, 3), (2, 3)]:
                for a, b in [(1, 2), (2, 1), (1, 3)]:
                    assert bl.check_dynamical_AS(ctx, s, i, j, a, b)


def test_dynamical_exchange_rejects_mixed_weights(ctx21):
    f = ctx21.field
    from qzm.fock import word_from_letters
    s = State(f, 2, terms={
        word_from_letters(2, [(1, 1)]): f.one,
        word_from_letters(2, [(1, 1), (1, 2)]): f.one,
    })
    with pytest.raises(UsageError):
        bl.check_dynamical_AS(ctx21, s, 1, 2, 1, 2)


def test_contraction_vanishing_free_level(ctx31, gctx3):
    for ctx in (ctx31, gctx3):
        states = [qa.tensor_vacuum(ctx), qa.apply_Q(1, 1, qa.tensor_vacuum(ctx))]
        for t in states:
            for i, j in [(1, 2), (2, 1), (2, 3)]:
                for l, m in [(1, 2), (3, 1)]:
                    assert bl.check_contraction_vanishing(t, i, j, l, m)


def test_QQ_split_free_level(ctx31):
    states = [qa.tensor_vacuum(ctx31),
              qa.apply_Q(1, 1, qa.tensor_vacuum(ctx31)),
              qa.apply_Q(2, 2, qa.apply_Q(1, 1, qa.tensor_vacuum(ctx31)))]
    for t in states:
        for (i, l, j, m) in [(1, 1, 1, 1), (1, 2, 2, 1), (2, 2, 1, 1), (1, 3, 3, 1)]:
            assert bl.check_QQ_split(t, i, l, j, m)


def test_unsupported_small_h():
    from qzm.scalars import ROOT, make_field
    # [2] != 0 requires h >= 3 and the root field enforces h >= 3 itself
    with pytest.raises(UsageError):
        make_field(ROOT, 2)


def test_hook_audit(ctx31):
    """The saturated-hook decomposition: the first vector is purely
    q-symmetric, the second purely q-antisymmetric."""
    v = qa.hook_backbone(ctx31, 2)
    v_h = qa.apply_Q(2, 2, qa.apply_Q(1, 1, v))
    w_h = qa.apply_Q(1, 1, qa.apply_Q(2, 2, v))
    ss_v, aa_v = bl.decompose_QQ(2, 2, 1, 1, v)
    ss_w, aa_w = bl.decompose_QQ(1, 1, 2, 2, v)
    assert (v_h - ss_v - aa_v).is_empty()
    assert (w_h - ss_w - aa_w).is_empty()
    assert qa.is_zero_tensor(ctx31, v_h - ss_v)      # AA part of v_h dies
    assert qa.is_zero_tensor(ctx31, w_h - aa_w)      # SS part of w_h dies
    assert qa.is_zero_tensor(ctx31, v_h)
