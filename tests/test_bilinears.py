import gc
import random

import pytest

from qzm import bilinears as bl, qalgebra as qa
from qzm.basis import FockContext
from qzm.fock import State, letter_code, word_is_dead, word_row_content
from qzm.scalars import UsageError
from qzm.weights import epsilon, p_diff
from test_cli import _alter_tail


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


def test_bilinear_table_is_made_once_and_freed_with_its_context():
    """``bilinear_terms`` reads one table per field: a second call returns
    the very tuple of the first, and the table is emptied, like the field's
    memo, when its context is released."""
    gc.collect()
    gc.disable()
    try:
        ctx = FockContext(3, 1)
        field = ctx.field
        terms = bl.bilinear_terms(field, 3, "S", 1, 2, 1, 3)
        assert bl.bilinear_terms(field, 3, "S", 1, 2, 1, 3) is terms
        assert field.tables[(3, "S", 1, 2, 1, 3)] is terms
        del ctx
        assert not field.tables
    finally:
        gc.enable()


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
def test_zero_state_passes_the_quotient_checks(generic):
    """The zero state satisfies every identity vacuously: it has no
    weight, and the dynamical check passes on it rather than raising."""
    ctx = FockContext(3, 1, generic=generic)
    zero = State(ctx.field, 3)
    for i, j in [(1, 2), (2, 3)]:
        for a, b in [(1, 2), (3, 1), (2, 2)]:
            assert bl.check_dynamical_AS(ctx, zero, i, j, a, b)
            assert bl.check_diagonal_simple(ctx, zero, i, j, a, b)
            assert bl.check_split_completeness(zero, i, j, a, b)
            assert bl.check_symmetry_relabeling(zero, i, j, a, b)


# ---------------------------------------------------------------------------
# the oracle: the identities on free States, each bilinear applied into a
# new State (coefficients made anew on every call) and the sides combined
# with State scale, + and -
# ---------------------------------------------------------------------------

def oracle_bilinear_terms(field, n, kind, i, j, a, b):
    two = field.q_int(2)
    if a == b:
        if kind == "A":
            return ()
        return ((bytes((letter_code(n, i, a), letter_code(n, j, a))), field.one),)
    inv2 = two.invert()
    e = epsilon(a, b)
    w1 = bytes((letter_code(n, i, a), letter_code(n, j, b)))
    w2 = bytes((letter_code(n, i, b), letter_code(n, j, a)))
    if kind == "A":
        return ((w1, field.q_power(-e) * inv2), (w2, -inv2))
    return ((w1, field.q_power(e) * inv2), (w2, inv2))


def oracle_apply_bilinear(kind, i, j, a, b, state):
    out = {}
    terms = oracle_bilinear_terms(state.field, state.n, kind, i, j, a, b)
    for prefix, c in terms:
        for w, x in state.terms.items():
            v = out.get(prefix + w)
            out[prefix + w] = c * x if v is None else v + c * x
    return State(state.field, state.n, out)


def oracle_apply_tensor_pair(kind_left, kind_right, i, j, l, m, state):
    field, n = state.field, state.n
    out = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            left = oracle_bilinear_terms(field, n, kind_left, i, j, a, b)
            right = oracle_bilinear_terms(field, n, kind_right, l, m, a, b)
            for (w, wb), c in state.terms.items():
                for pl, cl in left:
                    for pr, cr in right:
                        key = (pl + w, pr + wb)
                        v = out.get(key)
                        out[key] = c * cl * cr if v is None else v + c * cl * cr
    return State(field, n, out)


def oracle_split_completeness(state, i, j, a, b):
    total = oracle_apply_bilinear("A", i, j, a, b, state) \
        + oracle_apply_bilinear("S", i, j, a, b, state)
    return (total - state.apply_letter(j, b).apply_letter(i, a)).is_empty()


def oracle_symmetry_relabeling(state, i, j, a, b):
    if a == b:
        return True
    f = state.field
    s_ok = (oracle_apply_bilinear("S", i, j, a, b, state)
            - oracle_apply_bilinear("S", i, j, b, a, state).scale(
                f.q_power(epsilon(a, b)))).is_empty()
    a_ok = (oracle_apply_bilinear("A", i, j, a, b, state)
            + oracle_apply_bilinear("A", i, j, b, a, state).scale(
                f.q_power(-epsilon(a, b)))).is_empty()
    return s_ok and a_ok


def oracle_dynamical_AS(ctx, state, i, j, a, b):
    (g,) = {word_row_content(state.n, w) for w in state.terms}
    pij = p_diff(g, i, j)
    f = ctx.field
    lhs = oracle_apply_bilinear("A", i, j, a, b, state).scale(f.q_int(pij + 1))
    rhs = oracle_apply_bilinear("A", j, i, a, b, state).scale(f.q_int(pij - 1))
    if not ctx.is_zero_state(lhs + rhs):
        return False
    return ctx.is_zero_state(oracle_apply_bilinear("S", i, j, a, b, state)
                             - oracle_apply_bilinear("S", j, i, a, b, state))


def oracle_diagonal_simple(ctx, state, i, j, a, b):
    if not ctx.is_zero_state(oracle_apply_bilinear("A", i, i, a, b, state)):
        return False
    return ctx.is_zero_state(oracle_apply_bilinear("S", i, j, a, a, state)
                             - oracle_apply_bilinear("S", j, i, a, a, state))


def oracle_contraction_vanishing(state, i, j, l, m):
    return oracle_apply_tensor_pair("S", "A", i, j, l, m, state).is_empty() \
        and oracle_apply_tensor_pair("A", "S", i, j, l, m, state).is_empty()


def oracle_QQ_split(state, i, l, j, m):
    plain = qa.apply_Q(i, l, qa.apply_Q(j, m, state))
    return (plain - oracle_apply_tensor_pair("S", "S", i, j, l, m, state)
            - oracle_apply_tensor_pair("A", "A", i, j, l, m, state)).is_empty()


def _samples(ctx, count=6):
    """Seeded live word states, and the tensor states verify-algebra uses:
    the vacuum, Q^1_1 and (Q^1_1)^2 on it."""
    tensors = [qa.tensor_vacuum(ctx)]
    for _ in range(2):
        tensors.append(qa.apply_Q(1, 1, tensors[-1]))
    return random_states(ctx, count), tensors


def _chiral_cases(ctx):
    n = ctx.n
    return [(i, j, a, b) for i in range(1, n + 1) for j in range(1, n + 1)
            for a in range(1, n + 1) for b in range(1, n + 1)]


def _tensor_cases(ctx):
    pairs = [(i, j) for i in range(1, ctx.n + 1) for j in range(1, ctx.n + 1)]
    return [(i, j, l, m) for i, j in pairs for l, m in pairs[:4]]


AGREEMENT = [(2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
@pytest.mark.parametrize("n, k", AGREEMENT)
def test_one_table_checks_agree_with_the_state_oracle(n, k, generic):
    """Every rewritten check gives the oracle's verdict, and the kept
    operators (``apply_bilinear``, ``apply_tensor_pair``,
    ``decompose_QQ``) give the oracle's states, term for term."""
    ctx = FockContext(n, k, generic=generic)
    states, tensors = _samples(ctx)
    for s in states:
        for i, j, a, b in _chiral_cases(ctx):
            for kind in ("A", "S"):
                assert bl.apply_bilinear(kind, i, j, a, b, s).terms == \
                    oracle_apply_bilinear(kind, i, j, a, b, s).terms
            assert bl.check_split_completeness(s, i, j, a, b) \
                == oracle_split_completeness(s, i, j, a, b)
            assert bl.check_symmetry_relabeling(s, i, j, a, b) \
                == oracle_symmetry_relabeling(s, i, j, a, b)
            assert bl.check_diagonal_simple(ctx, s, i, j, a, b) \
                == oracle_diagonal_simple(ctx, s, i, j, a, b)
            if i != j:
                assert bl.check_dynamical_AS(ctx, s, i, j, a, b) \
                    == oracle_dynamical_AS(ctx, s, i, j, a, b)
    for t in tensors:
        for i, j, l, m in _tensor_cases(ctx):
            ss, aa = bl.decompose_QQ(i, l, j, m, t)
            assert ss.terms == oracle_apply_tensor_pair("S", "S", i, j, l, m, t).terms
            assert aa.terms == oracle_apply_tensor_pair("A", "A", i, j, l, m, t).terms
            assert bl.apply_tensor_pair("S", "A", i, j, l, m, t).terms == \
                oracle_apply_tensor_pair("S", "A", i, j, l, m, t).terms
            assert bl.check_contraction_vanishing(t, i, j, l, m) \
                == oracle_contraction_vanishing(t, i, j, l, m)
            assert bl.check_QQ_split(t, i, l, j, m) == oracle_QQ_split(t, i, l, j, m)


def _perturbed(field, n, key):
    """Add one to the first coefficient of the table entry ``key``."""
    (w, c), *rest = bl.bilinear_terms(field, n, *key)
    field.tables[(n, *key)] = ((w, c + field.one), *rest)


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
def test_a_perturbed_table_entry_fails_each_free_identity(generic):
    """One coefficient of the term table, one more than its value, fails
    split completeness and flavor relabeling for every entry with a != b
    (both read it on a word state), and contraction vanishing and the QQ
    split for an S entry they read; the true table passes them all."""
    n = 3
    for kind in ("A", "S"):
        for i, j, a, b in _chiral_cases(FockContext(n, 1)):
            if a == b:
                continue
            ctx = FockContext(n, 1, generic=generic)
            s = random_states(ctx, 1)[0]
            assert bl.check_split_completeness(s, i, j, a, b)
            assert bl.check_symmetry_relabeling(s, i, j, a, b)
            _perturbed(ctx.field, n, (kind, i, j, a, b))
            assert not bl.check_split_completeness(s, i, j, a, b)
            assert not bl.check_symmetry_relabeling(s, i, j, a, b)
    ctx = FockContext(n, 1, generic=generic)
    _, tensors = _samples(ctx)
    assert bl.check_contraction_vanishing(tensors[1], 1, 2, 2, 3)
    assert bl.check_QQ_split(tensors[1], 1, 2, 2, 3)
    _perturbed(ctx.field, n, ("S", 1, 2, 1, 3))
    assert not bl.check_contraction_vanishing(tensors[1], 1, 2, 2, 3)
    assert not bl.check_QQ_split(tensors[1], 1, 2, 2, 3)


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
def test_an_altered_block_tail_fails_the_dynamical_check(generic):
    """With one tail of a block that the samples' bilinear words reach made
    wrong (``_alter_tail``), the dynamical check fails for some sample, and
    its verdicts still equal the oracle's, sample by sample."""
    ctx = FockContext(3, 2, generic=generic)
    states = random_states(ctx, 6)
    cases = [(s, i, j, a, b) for s in states for i, j in [(1, 2), (2, 3)]
             for a in range(1, 4) for b in range(1, 4) if a != b]
    assert all(bl.check_dynamical_AS(ctx, *c) for c in cases)
    failed = 0
    for bb in [bb for key, bb in sorted(ctx._blocks.items())
               if sum(key[0]) == 5 and any(bb.rref.values())][:6]:
        _alter_tail(ctx, bb, next(w for w, r in bb.rref.items() if r))
        verdicts = [bl.check_dynamical_AS(ctx, *c) for c in cases]
        assert verdicts == [oracle_dynamical_AS(ctx, *c) for c in cases], bb.key
        failed += not all(verdicts)
        ctx._blocks[bb.key] = bb
        ctx._wred.clear()
    assert failed
