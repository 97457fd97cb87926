"""q-symmetric and q-antisymmetric bilinear calculus.

The two-letter products split as a^i_a a^j_b = A^{ij}_{ab} + S^{ij}_{ab}
with, for a != b,

    [2] A^{ij}_{ab} = q^{-eps_ab} a^i_a a^j_b - a^i_b a^j_a
    [2] S^{ij}_{ab} = q^{+eps_ab} a^i_a a^j_b + a^i_b a^j_a

while A vanishes and S is the bare product on the flavor diagonal.  The
barred bilinears have exactly the same expansion in (row, flavor) terms,
so one table serves both factors of a tensor state.

The completeness of the split, the flavor relabeling symmetries, the
contraction vanishing of mixed S (x) Abar pairs, and the S/A decomposition
of Q-bilinears are identities of the free coefficients alone -- checked
here as literal cancellations before any quotient reduction.  The
dynamical identity relating A^{ij} to A^{ji} does use the quotient.
"""

from __future__ import annotations

from .fock import State, letter_code, word_row_content
from .qalgebra import apply_Q
from .scalars import UsageError
from .weights import epsilon, p_diff

KIND_ANTI = "A"
KIND_SYM = "S"


def bilinear_terms(field, n, kind, i, j, a, b):
    """The two-letter expansion of a bilinear, divided by [2].

    Returns a tuple of (two-letter prefix bytes, Scalar); the first letter
    of the prefix is the later-acting factor.
    """
    if kind not in (KIND_ANTI, KIND_SYM):
        raise UsageError(f"unknown bilinear kind {kind!r}")
    two = field.q_int(2)
    if two.is_zero():
        raise UsageError("bilinears need [2] != 0, i.e. h >= 3")
    if a == b:
        if kind == KIND_ANTI:
            return ()
        w = bytes((letter_code(n, i, a), letter_code(n, j, a)))
        return ((w, field.one),)
    inv2 = two.invert()
    e = epsilon(a, b)
    w1 = bytes((letter_code(n, i, a), letter_code(n, j, b)))
    w2 = bytes((letter_code(n, i, b), letter_code(n, j, a)))
    if kind == KIND_ANTI:
        return ((w1, field.q_power(-e) * inv2), (w2, -inv2))
    return ((w1, field.q_power(e) * inv2), (w2, inv2))


def apply_bilinear(kind, i, j, a, b, state):
    """Apply a chiral bilinear to a chiral state (no reduction)."""
    field, n = state.field, state.n
    out = {}
    for prefix, c in bilinear_terms(field, n, kind, i, j, a, b):
        for w, x in state.terms.items():
            key = prefix + w
            cx = c * x
            v = out.get(key)
            out[key] = cx if v is None else v + cx
    return State(field, n, out)


def apply_tensor_pair(kind_left, kind_right, i, j, l, m, state):
    """Sum over both flavors of (bilinear) x (barred bilinear) on a tensor
    state; used for the S x Sbar / A x Abar parts and the mixed
    contractions."""
    field, n = state.field, state.n
    out = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            left = bilinear_terms(field, n, kind_left, i, j, a, b)
            if not left:
                continue
            right = bilinear_terms(field, n, kind_right, l, m, a, b)
            if not right:
                continue
            for (w, wb), c in state.terms.items():
                for pl, cl in left:
                    ccl = c * cl
                    for pr, cr in right:
                        key = (pl + w, pr + wb)
                        v = ccl * cr
                        old = out.get(key)
                        if old is None:
                            out[key] = v
                        else:
                            old = old + v
                            if old.is_zero():
                                del out[key]
                            else:
                                out[key] = old
    return State(field, n, out)


def decompose_QQ(i, l, j, m, state):
    """The S x Sbar and A x Abar parts of Q^i_l Q^j_m applied to a state.

    Their sum equals the plain double Q application as free coefficients
    (the mixed contractions cancel pairwise).
    """
    ss = apply_tensor_pair(KIND_SYM, KIND_SYM, i, j, l, m, state)
    aa = apply_tensor_pair(KIND_ANTI, KIND_ANTI, i, j, l, m, state)
    return ss, aa


def check_split_completeness(state, i, j, a, b):
    """A + S equals the two-letter product, term by term."""
    total = apply_bilinear(KIND_ANTI, i, j, a, b, state) \
        + apply_bilinear(KIND_SYM, i, j, a, b, state)
    product = state.apply_letter(j, b).apply_letter(i, a)
    return (total - product).is_empty()


def check_symmetry_relabeling(state, i, j, a, b):
    """S^{ij}_{ab} = q^{eps_ab} S^{ij}_{ba} and the antisymmetric mirror."""
    if a == b:
        return True
    field = state.field
    e = field.q_power(epsilon(a, b))
    s_ok = (apply_bilinear(KIND_SYM, i, j, a, b, state)
            - apply_bilinear(KIND_SYM, i, j, b, a, state).scale(e)).is_empty()
    a_ok = (apply_bilinear(KIND_ANTI, i, j, a, b, state)
            + apply_bilinear(KIND_ANTI, i, j, b, a, state).scale(
                field.q_power(-epsilon(a, b)))).is_empty()
    return s_ok and a_ok


def check_dynamical_AS(ctx, state, i, j, a, b):
    """[p_ij+1] A^{ij}_{ab} v = -[p_ij-1] A^{ji}_{ab} v and the S-exchange
    S^{ij} v = S^{ji} v, tested through the quotient on a weight state."""
    g = None
    for w in state.terms:
        c = word_row_content(state.n, w)
        if g is None:
            g = c
        elif g != c:
            raise UsageError("dynamical check needs a weight state")
    pij = p_diff(g, i, j)
    lhs = apply_bilinear(KIND_ANTI, i, j, a, b, state).scale(ctx.field.q_int(pij + 1))
    rhs = apply_bilinear(KIND_ANTI, j, i, a, b, state).scale(ctx.field.q_int(pij - 1))
    if not ctx.is_zero_state(lhs + rhs):
        return False
    diff = apply_bilinear(KIND_SYM, i, j, a, b, state) \
        - apply_bilinear(KIND_SYM, j, i, a, b, state)
    return ctx.is_zero_state(diff)


def check_diagonal_simple(ctx, state, i, j, a, b):
    """A^{ii}_{ab} kills every state; diagonal-flavor S is row-symmetric."""
    if not ctx.is_zero_state(apply_bilinear(KIND_ANTI, i, i, a, b, state)):
        return False
    diff = apply_bilinear(KIND_SYM, i, j, a, a, state) \
        - apply_bilinear(KIND_SYM, j, i, a, a, state)
    return ctx.is_zero_state(diff)


def check_contraction_vanishing(state, i, j, l, m):
    """Contracted S x Abar and A x Sbar pairs cancel identically."""
    s_ab = apply_tensor_pair(KIND_SYM, KIND_ANTI, i, j, l, m, state)
    a_sb = apply_tensor_pair(KIND_ANTI, KIND_SYM, i, j, l, m, state)
    return s_ab.is_empty() and a_sb.is_empty()


def check_QQ_split(state, i, l, j, m):
    """Q^i_l Q^j_m = S x Sbar + A x Abar as free coefficients."""
    ss, aa = decompose_QQ(i, l, j, m, state)
    plain = apply_Q(i, l, apply_Q(j, m, state))
    return (plain - ss - aa).is_empty()
