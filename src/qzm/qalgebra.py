"""The 2D Q-operator algebra on the tensor square of the Fock module.

Q^i_j acts as sum over flavors of (row-i chiral letter) x (row-j barred
letter).  States here are ``qzm.fock.State`` maps keyed by (chiral word,
barred word) pairs; zero-testing reduces both factors blockwise to their quotient
bases and checks the coefficient matrix in basis x basis coordinates.

Diagonal monomials ordered by row build the candidate basis vectors labeled
by spread-restricted Young diagrams; the checks in this module probe
nilpotency, growth of diagrams under diagonal operators, off-diagonal
annihilation, the dynamical commutation identity, and the hook vectors.

The checks reduce as they go: the relation span is a left ideal and reduced
coordinates are canonical, so reduce(Q v) = reduce(Q reduce(v)), and
``reduced_apply_Q`` applies Q to a few (basis word, basis word) pairs, not
to a free state of up to n^m terms.  ``diagram_coordinates`` memoises each
diagram's coordinates per context; ``vector_of_diagram`` stays free.
"""

from __future__ import annotations

from collections import namedtuple

from . import diagrams as dg
from .basis import RelationInconsistency
from .fock import (EPS_SIGN, State, letter_code, word_letters,
                   word_row_content)
from .scalars import UsageError
from .weights import p_diff


def tensor_vacuum(ctx):
    """The vacuum of the tensor square, keyed by the empty word pair."""
    return State(ctx.field, ctx.n, {(b"", b""): ctx.field.one})


def apply_Q(i, j, state):
    """Q^i_j: sum over flavors of paired chiral/barred left multiplications."""
    n = state.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise UsageError(f"Q indices ({i},{j}) out of range 1..{n}")
    pairs = [(bytes((letter_code(n, i, al),)), bytes((letter_code(n, j, al),)))
             for al in range(1, n + 1)]
    out = {}
    for (w, wb), c in state.terms.items():
        for x, xb in pairs:
            key = (x + w, xb + wb)
            v = out.get(key)
            out[key] = c if v is None else v + c
    return State(state.field, n, out)


def apply_Q_power(i, j, m, state):
    for _ in range(m):
        state = apply_Q(i, j, state)
    return state


def reduced_coordinates(ctx, state):
    """Coordinates of the state over (basis word, basis word) pairs."""
    acc = {}
    for (w, wb), c in state.terms.items():
        rw = ctx.reduce_word(w)
        if not rw:
            continue
        rwb = ctx.reduce_word(wb)
        if not rwb:
            continue
        for fw, s in rw:
            cs = c * s
            for fwb, sb in rwb:
                ct = cs * sb
                key = (fw, fwb)
                v = acc.get(key)
                if v is None:
                    acc[key] = ct
                else:
                    v = v + ct
                    if v.is_zero():
                        del acc[key]
                    else:
                        acc[key] = v
    return acc


def reduced_apply_Q(ctx, i, j, coords):
    """The reduced coordinates of Q^i_j v, given v's reduced coordinates."""
    return reduced_coordinates(ctx, apply_Q(i, j, State(ctx.field, ctx.n,
                                                        coords)))


def is_zero_tensor(ctx, state):
    return not reduced_coordinates(ctx, state)


def residual_certificate(ctx, coords):
    """Stable fingerprint of a vector's reduced coordinates.

    Returns None for zero coordinates, else "<count>:<hash>" over their
    canonically ordered encoding; reproducible across runs, usable as an
    audit reference for failed vanishing checks.
    """
    import hashlib
    import json as _json
    if not coords:
        return None
    items = []
    for (w, wb) in sorted(coords, key=lambda k: (k[0], k[1])):
        items.append([word_letters(ctx.n, w), word_letters(ctx.n, wb),
                      coords[(w, wb)].encode()])
    digest = hashlib.sha256(
        _json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]
    return f"{len(items)}:{digest}"


# ---------------------------------------------------------------------------
# diagram vectors and the pre-physical space
# ---------------------------------------------------------------------------

def _check_diagram(ctx, y):
    if y.n != ctx.n:
        raise UsageError("diagram rank does not match the context")
    if ctx.h is not None and not dg.is_admissible(y, ctx.h):
        raise UsageError(f"diagram {y.parts} is not admissible for h={ctx.h}")


def vector_of_diagram(ctx, y):
    """The ordered diagonal monomial vector of an admissible diagram."""
    _check_diagram(ctx, y)
    s = tensor_vacuum(ctx)
    for row in range(1, len(y.parts) + 1):
        s = apply_Q_power(row, row, y.parts[row - 1], s)
    return s


def diagram_coordinates(ctx, y):
    """The reduced coordinates of ``vector_of_diagram(ctx, y)``, memoised in
    the context: Q^r_r applied to those of y less the last box of its last
    row r, which is admissible whenever y is.  Callers must not mutate it."""
    _check_diagram(ctx, y)
    coords = ctx._diagrams.get(y.parts)
    if coords is None:
        if y.parts:
            r = len(y.parts)
            less = dg.YoungDiagram(ctx.n, y.parts[:-1] + (y.parts[-1] - 1,))
            coords = reduced_apply_Q(ctx, r, r, diagram_coordinates(ctx, less))
        else:
            coords = reduced_coordinates(ctx, tensor_vacuum(ctx))
        ctx._diagrams[y.parts] = coords
    return coords


DiagramRecord = namedtuple("DiagramRecord", "diagram nonzero unitary")


class FPrimeResult:
    """The dimension and one ``DiagramRecord`` per admissible diagram."""

    __slots__ = ("dimension", "records")

    def __init__(self, dimension, records=None):
        self.dimension = dimension
        self.records = [] if records is None else records


def fprime_dimension(ctx):
    """Count the nonzero diagram vectors; they are independent since
    distinct admissible diagrams carry distinct content pairs."""
    if ctx.h is None:
        raise UsageError("dimension scan needs root-of-unity mode")
    records = []
    dim = 0
    for y in dg.enumerate_diagrams(ctx.n, ctx.h):
        coords = diagram_coordinates(ctx, y)
        # each side keeps the diagram's row content: reduction stays in the
        # determinant chain, and a chain of fewer than n rows has one level
        g = y.row_content()
        if any(word_row_content(ctx.n, w) != g or word_row_content(ctx.n, wb)
               != g for w, wb in coords):
            raise RelationInconsistency("diagram vector with mismatched weights")
        nz = bool(coords)
        if nz:
            dim += 1
        records.append(DiagramRecord(y, nz, dg.is_unitary(y, ctx.k)))
    return FPrimeResult(dim, records)


# ---------------------------------------------------------------------------
# growth of diagrams under diagonal operators
# ---------------------------------------------------------------------------

GROWTH_ZERO = "zero"
GROWTH_PROPORTIONAL = "proportional"
GROWTH_IN_SPAN = "in_span"
GROWTH_OUTSIDE = "outside"


# coordinates: the reduced coordinates of Q^j_j v
GrowthOutcome = namedtuple(
    "GrowthOutcome", "kind target coefficient prediction coordinates",
    defaults=(None, None, "diagram", None))


def _proportionality(coords, target_coords):
    """The scalar c with coords == c * target_coords, if one exists."""
    if not target_coords or len(coords) != len(target_coords):
        return None
    key = min(target_coords)
    if key not in coords:
        return None
    c = coords[key] / target_coords[key]
    for k, tv in target_coords.items():
        v = coords.get(k)
        if v is None or not (v - c * tv).is_zero():
            return None
    return c


def check_growth(ctx, y, j):
    """Classify Q^j_j applied to a diagram vector.

    Outcomes: zero; proportional to the grown diagram's vector (legal
    growth, with its nonzero structure coefficient); a multiple of the
    admissible diagram one determinant step down the content chain; or
    outside the diagram span, which would falsify the diagonal-space
    claim and is reported loudly by callers.
    """
    grown = dg.grow(y, j, ctx.h)
    # a box ending the grown diagram's last row gives its memoised vector
    last = grown.kind == "diagram" and grown.diagram.rows == j
    coords = (diagram_coordinates(ctx, grown.diagram) if last else
              reduced_apply_Q(ctx, j, j, diagram_coordinates(ctx, y)))
    if not coords:
        return GrowthOutcome(GROWTH_ZERO, None, None, grown.kind, coords)
    target = None
    if grown.kind == "diagram":
        target, kind = grown.diagram, GROWTH_PROPORTIONAL
    else:
        # the only admissible diagram sharing the content chain sits m
        # steps down, where m is forced by the last row count
        content = list(y.row_content())
        content[j - 1] += 1
        m = content[-1]
        lowered = tuple(c - m for c in content)
        if m > 0 and min(lowered) >= 0 and lowered[-1] == 0:
            parts = tuple(c for c in lowered if c)
            if all(parts[t] >= parts[t + 1] for t in range(len(parts) - 1)):
                cand = dg.YoungDiagram(ctx.n, parts)
                if dg.is_admissible(cand, ctx.h):
                    target, kind = cand, GROWTH_IN_SPAN
    if target is not None:
        c = (ctx.field.one if last else
             _proportionality(coords, diagram_coordinates(ctx, target)))
        if c is not None and not c.is_zero():
            return GrowthOutcome(kind, target, c, grown.kind, coords)
    return GrowthOutcome(GROWTH_OUTSIDE, None, None, grown.kind, coords)


def check_offdiagonal_annihilation(ctx, y):
    """True when every off-diagonal Q kills the diagram vector."""
    v = diagram_coordinates(ctx, y)
    rng = range(1, ctx.n + 1)
    return not any(i != j and reduced_apply_Q(ctx, i, j, v)
                   for i in rng for j in rng)


# ---------------------------------------------------------------------------
# dynamical commutation and hook vectors
# ---------------------------------------------------------------------------

def _QQ(ctx, i, j, l, m, coords):
    """The reduced coordinates of Q^i_j Q^l_m v."""
    return reduced_apply_Q(ctx, i, j, reduced_apply_Q(ctx, l, m, coords))


def check_dynamical_commutation(ctx, coords, i, j):
    """[p_ij+1] Q^i_i Q^j_j v = [p_ij-1] Q^j_j Q^i_i v, given that one of
    Q^i_j v, Q^j_i v vanishes, for a weight vector v given by its reduced
    coordinates.  Returns "pass", "fail" or "vacuous"."""
    if i == j or not coords:
        return "pass"
    if (reduced_apply_Q(ctx, i, j, coords)
            and reduced_apply_Q(ctx, j, i, coords)):
        return "vacuous"
    # p_i - p_j, which a determinant chain shift leaves alone
    pij = p_diff(word_row_content(ctx.n, next(iter(coords))[0]), i, j)
    f, n = ctx.field, ctx.n
    lhs = State(f, n, _QQ(ctx, i, i, j, j, coords)).scale(f.q_int(pij + 1))
    rhs = State(f, n, _QQ(ctx, j, j, i, i, coords)).scale(f.q_int(pij - 1))
    return "pass" if (lhs - rhs).is_empty() else "fail"


def hook_diagram(ctx, i):
    """The diagram (h-i, 1, ..., 1) of i-1 rows, whose vector is the backbone
    v = Q^{i-1}_{i-1} ... Q^2_2 (Q^1_1)^{h-i} |0> of the saturated hook."""
    if ctx.h is None:
        raise UsageError("hook vectors need root-of-unity mode")
    if not 2 <= i <= ctx.n - 1:
        raise UsageError("hook row must satisfy 2 <= i <= n-1")
    return dg.YoungDiagram(ctx.n, (ctx.h - i,) + (1,) * (i - 2))


def hook_backbone(ctx, i):
    """The backbone v of the saturated hook, as a free state."""
    return vector_of_diagram(ctx, hook_diagram(ctx, i))


def hook_coordinates(ctx, i, first):
    """The reduced coordinates of v_h = Q^i_i Q^1_1 v (``first`` = 1) or
    w_h = Q^1_1 Q^i_i v (``first`` = i)."""
    second = i if first == 1 else 1
    return _QQ(ctx, second, second, first, first,
               diagram_coordinates(ctx, hook_diagram(ctx, i)))


def check_hook_vanishing(ctx, i):
    """Vanishing of the two saturated-hook vectors Q^i_i Q^1_1 v and
    Q^1_1 Q^i_i v; the first follows from the dynamical identity, the
    second is the computational claim."""
    return (not hook_coordinates(ctx, i, 1),
            not hook_coordinates(ctx, i, i))


def check_rowcol_commutativity(ctx, vectors):
    """Entries of Q in one row or one column commute, on the vectors given
    by their reduced coordinates (canonical, so equal vectors are equal).
    Each Q^a_b v is computed once per vector."""
    Q, rng = reduced_apply_Q, range(1, ctx.n + 1)
    singles = ({(a, b): Q(ctx, a, b, v) for a in rng for b in rng}
               for v in vectors)
    return all(Q(ctx, i, j, qv[i, l]) == Q(ctx, i, l, qv[i, j])
               and Q(ctx, j, i, qv[l, i]) == Q(ctx, l, i, qv[j, i])
               for qv in singles for i in rng for j in rng for l in rng
               if j < l)


def nilpotency(ctx, i, j):
    """(Q^i_j)^h |0> = 0 in root mode; a zero step stays zero."""
    if ctx.h is None:
        raise UsageError("nilpotency is a root-of-unity statement")
    v = diagram_coordinates(ctx, dg.YoungDiagram(ctx.n))
    for _ in range(ctx.h):
        v = v and reduced_apply_Q(ctx, i, j, v)
    return not v


def resolve_eps_sign():
    """The pinned quantum epsilon sign, EPS_SIGN (see qzm.fock)."""
    return EPS_SIGN
