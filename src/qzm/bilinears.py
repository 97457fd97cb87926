"""q-symmetric and q-antisymmetric bilinear calculus.

The two-letter products split as a^i_a a^j_b = A^{ij}_{ab} + S^{ij}_{ab}
with, for a != b,

    [2] A^{ij}_{ab} = q^{-eps_ab} a^i_a a^j_b - a^i_b a^j_a
    [2] S^{ij}_{ab} = q^{+eps_ab} a^i_a a^j_b + a^i_b a^j_a

while A vanishes and S is the bare product on the flavor diagonal.  The
barred bilinears have exactly the same expansion in (row, flavor) terms,
so one table serves both factors of a tensor state; it lives in
``FieldSpec.tables``, made entry by entry and emptied with the field's memo.

Each identity is tested in one accumulator dict (``_combine``), with no
intermediate states.  The completeness of the split, the flavor relabeling
symmetries, the contraction vanishing of mixed S (x) Abar pairs and the S/A
decomposition of Q-bilinears are identities of the free coefficients: each
entry must cancel to zero.  The dynamical A^{ij}/A^{ji} exchange and
diagonal simplicity pass theirs to the quotient's zero test, ``reduce_terms``.
"""

from __future__ import annotations

from .fock import State, letter_code, word_row_content
# the plain side of the QQ split; perfbench/tracer.py times it here too
from .qalgebra import apply_Q
from .scalars import UsageError
from .weights import epsilon, p_diff

KIND_ANTI = "A"
KIND_SYM = "S"


def bilinear_terms(field, n, kind, i, j, a, b):
    """The two-letter expansion of a bilinear, divided by [2], from the
    field's table: a tuple of (two-letter prefix bytes, Scalar); the first
    letter of the prefix is the later-acting factor."""
    key = (n, kind, i, j, a, b)
    terms = field.tables.get(key)
    if terms is None:
        if kind not in (KIND_ANTI, KIND_SYM):
            raise UsageError(f"unknown bilinear kind {kind!r}")
        w1 = bytes((letter_code(n, i, a), letter_code(n, j, b)))
        if a == b:
            terms = () if kind == KIND_ANTI else ((w1, field.one),)
        else:
            # [2] != 0, as a root field has h >= 3
            inv2, e = field.q_int(2).invert(), epsilon(a, b)
            w2 = bytes((letter_code(n, i, b), letter_code(n, j, a)))
            terms = (((w1, field.q_power(-e) * inv2), (w2, -inv2))
                     if kind == KIND_ANTI else
                     ((w1, field.q_power(e) * inv2), (w2, inv2)))
        field.tables[key] = terms
    return terms


def _pair_terms(field, n, kind_left, kind_right, i, j, l, m):
    """Sum over both flavors of (bilinear) x (barred bilinear), as terms
    ((prefix, barred prefix), Scalar)."""
    return [((pl, pr), cl * cr)
            for a in range(1, n + 1) for b in range(1, n + 1)
            for pl, cl in bilinear_terms(field, n, kind_left, i, j, a, b)
            for pr, cr in bilinear_terms(field, n, kind_right, l, m, a, b)]


def _combine(state, *parts, acc=None):
    """``acc`` (a new dict by default) plus the sum over the parts (s,
    terms) of s * terms (x) state, where a bytes prefix goes onto each word
    of a chiral state and a (prefix, barred prefix) pair onto each word pair
    of a tensor state.  Entries that cancel stay, as zeros."""
    acc = {} if acc is None else acc
    for s, terms in parts:
        for p, c in terms:
            c = c * s
            for w, x in state.terms.items():
                k = p + w if type(w) is bytes else (p[0] + w[0], p[1] + w[1])
                cx = c * x
                v = acc.get(k)
                acc[k] = cx if v is None else v + cx
    return acc


def _vanishes(acc):
    return all(c.is_zero() for c in acc.values())


def apply_bilinear(kind, i, j, a, b, state):
    """Apply a chiral bilinear to a chiral state (no reduction)."""
    f, n = state.field, state.n
    return State(f, n, _combine(
        state, (f.one, bilinear_terms(f, n, kind, i, j, a, b))))


def apply_tensor_pair(kind_left, kind_right, i, j, l, m, state):
    """Sum over both flavors of (bilinear) x (barred bilinear) on a tensor
    state: the S x Sbar / A x Abar parts and the mixed contractions."""
    f, n = state.field, state.n
    return State(f, n, _combine(
        state, (f.one, _pair_terms(f, n, kind_left, kind_right, i, j, l, m))))


def decompose_QQ(i, l, j, m, state):
    """The S x Sbar and A x Abar parts of Q^i_l Q^j_m applied to a state;
    their sum is the plain double Q application (``check_QQ_split``)."""
    return (apply_tensor_pair(KIND_SYM, KIND_SYM, i, j, l, m, state),
            apply_tensor_pair(KIND_ANTI, KIND_ANTI, i, j, l, m, state))


def check_split_completeness(state, i, j, a, b):
    """A + S equals the two-letter product, term by term."""
    f, n = state.field, state.n
    product = ((bytes((letter_code(n, i, a), letter_code(n, j, b))), -f.one),)
    return _vanishes(_combine(state, (f.one, product), *(
        (f.one, bilinear_terms(f, n, kind, i, j, a, b))
        for kind in (KIND_ANTI, KIND_SYM))))


def check_symmetry_relabeling(state, i, j, a, b):
    """S^{ij}_{ab} = q^{eps_ab} S^{ij}_{ba} and the antisymmetric mirror."""
    f, n, e = state.field, state.n, epsilon(a, b)
    return a == b or all(_vanishes(_combine(
        state, (f.one, bilinear_terms(f, n, kind, i, j, a, b)),
        (s, bilinear_terms(f, n, kind, i, j, b, a))))
        for kind, s in ((KIND_SYM, -f.q_power(e)), (KIND_ANTI, f.q_power(-e))))


def check_dynamical_AS(ctx, state, i, j, a, b):
    """[p_ij+1] A^{ij}_{ab} v = -[p_ij-1] A^{ji}_{ab} v and the S-exchange
    S^{ij} v = S^{ji} v, tested through the quotient on a weight state (the
    zero state passes)."""
    f, n = ctx.field, state.n
    weights = {word_row_content(n, w) for w in state.terms}
    if len(weights) > 1:
        raise UsageError("dynamical check needs a weight state")
    pij = p_diff(weights.pop(), i, j) if weights else 0
    return not any(ctx.reduce_terms(_combine(
        state, (s, bilinear_terms(f, n, kind, i, j, a, b)),
        (t, bilinear_terms(f, n, kind, j, i, a, b)))) for kind, s, t in (
            (KIND_ANTI, f.q_int(pij + 1), f.q_int(pij - 1)),
            (KIND_SYM, f.one, -f.one)))


def check_diagonal_simple(ctx, state, i, j, a, b):
    """A^{ii}_{ab} kills every state; diagonal-flavor S is row-symmetric."""
    f, n = ctx.field, state.n
    return not any(ctx.reduce_terms(_combine(state, *parts)) for parts in (
        [(f.one, bilinear_terms(f, n, KIND_ANTI, i, i, a, b))],
        [(f.one, bilinear_terms(f, n, KIND_SYM, i, j, a, a)),
         (-f.one, bilinear_terms(f, n, KIND_SYM, j, i, a, a))]))


def check_contraction_vanishing(state, i, j, l, m):
    """Contracted S x Abar and A x Sbar pairs cancel identically."""
    f, n = state.field, state.n
    return all(_vanishes(_combine(
        state, (f.one, _pair_terms(f, n, kl, kr, i, j, l, m))))
        for kl, kr in ((KIND_SYM, KIND_ANTI), (KIND_ANTI, KIND_SYM)))


def check_QQ_split(state, i, l, j, m):
    """Q^i_l Q^j_m = S x Sbar + A x Abar as free coefficients."""
    f, n = state.field, state.n
    return _vanishes(_combine(state, *(
        (-f.one, _pair_terms(f, n, kind, kind, i, j, l, m))
        for kind in (KIND_SYM, KIND_ANTI)),
        acc=dict(apply_Q(i, l, apply_Q(j, m, state)).terms)))
