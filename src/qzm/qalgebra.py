"""The 2D Q-operator algebra on the tensor square of the Fock module.

Q^i_j acts as sum over flavors of (row-i chiral letter) x (row-j barred
letter).  States here are sparse maps from (chiral word, barred word) pairs
to scalars; zero-testing reduces both factors blockwise to their quotient
bases and checks the coefficient matrix in basis x basis coordinates.

Diagonal monomials ordered by row build the candidate basis vectors labeled
by spread-restricted Young diagrams; the checks in this module probe
nilpotency, growth of diagrams under diagonal operators, off-diagonal
annihilation, the dynamical commutation identity, and the hook vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import diagrams as dg
from .basis import RelationInconsistency
from .fock import EPS_SIGN, letter_code, word_row_content
from .scalars import UsageError


class TensorState:
    """Sparse combination of (chiral word, barred word) pairs."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field, n, terms=None):
        self.field = field
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def vacuum(cls, field, n):
        return cls(field, n, {(b"", b""): field.one})

    def is_empty(self):
        return not self.terms

    def scale(self, c):
        if c.is_zero():
            return TensorState(self.field, self.n)
        return TensorState(self.field, self.n,
                           {k: c * x for k, x in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k)
            out[k] = c if v is None else v + c
        return TensorState(self.field, self.n, out)

    def __sub__(self, other):
        return self + other.scale(self.field.minus_one)

    def content_pair(self):
        """The (row content, barred row content) of the keys.

        Raises if the state mixes contents, i.e. is not a weight vector.
        """
        pairs = {(word_row_content(self.n, w), word_row_content(self.n, wb))
                 for w, wb in self.terms}
        if len(pairs) != 1:
            raise UsageError("state does not carry a single content pair")
        return next(iter(pairs))


def tensor_vacuum(ctx):
    return TensorState.vacuum(ctx.field, ctx.n)


def apply_Q(i, j, state):
    """Q^i_j: sum over flavors of paired chiral/barred left multiplications."""
    n = state.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise UsageError(f"Q indices ({i},{j}) out of range 1..{n}")
    out = {}
    for (w, wb), c in state.terms.items():
        for al in range(1, n + 1):
            key = (bytes([letter_code(n, i, al)]) + w,
                   bytes([letter_code(n, j, al)]) + wb)
            v = out.get(key)
            out[key] = c if v is None else v + c
    return TensorState(state.field, n, out)


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
            cs = c if s is None else c * s
            for fwb, sb in rwb:
                ct = cs if sb is None else cs * sb
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


def is_zero_tensor(ctx, state):
    return not reduced_coordinates(ctx, state)


def residual_certificate(ctx, state):
    """Stable fingerprint of a state's nonzero quotient coordinates.

    Returns None for zero states, else "<count>:<hash>" over the canonically
    ordered (basis word, basis word) -> scalar encoding; reproducible across
    runs, usable as an audit reference for failed vanishing checks.
    """
    import hashlib
    import json as _json
    coords = reduced_coordinates(ctx, state)
    if not coords:
        return None
    from .fock import word_letters
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

def vector_of_diagram(ctx, y):
    """The ordered diagonal monomial vector of an admissible diagram."""
    if y.n != ctx.n:
        raise UsageError("diagram rank does not match the context")
    if ctx.h is not None and not dg.is_admissible(y, ctx.h):
        raise UsageError(f"diagram {y.parts} is not admissible for h={ctx.h}")
    s = tensor_vacuum(ctx)
    for row in range(1, len(y.parts) + 1):
        s = apply_Q_power(row, row, y.parts[row - 1], s)
    return s


def weights_coincide(state):
    """Both factors of every key must carry the same row content."""
    g, gb = state.content_pair()
    return g == gb


@dataclass
class DiagramRecord:
    diagram: dg.YoungDiagram
    nonzero: bool
    unitary: bool


@dataclass
class FPrimeResult:
    dimension: int
    records: list = dc_field(default_factory=list)


def fprime_dimension(ctx):
    """Count the nonzero diagram vectors; they are independent since
    distinct admissible diagrams carry distinct content pairs."""
    if ctx.h is None:
        raise UsageError("dimension scan needs root-of-unity mode")
    records = []
    dim = 0
    for y in dg.enumerate_diagrams(ctx.n, ctx.h):
        v = vector_of_diagram(ctx, y)
        if not weights_coincide(v):
            raise RelationInconsistency("diagram vector with mismatched weights")
        nz = not is_zero_tensor(ctx, v)
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


@dataclass
class GrowthOutcome:
    kind: str
    target: dg.YoungDiagram | None = None
    coefficient: object = None
    prediction: str = "diagram"


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
    s = apply_Q(j, j, vector_of_diagram(ctx, y))
    coords = reduced_coordinates(ctx, s)
    if not coords:
        return GrowthOutcome(GROWTH_ZERO, prediction=grown.kind)
    if grown.kind == "diagram":
        target = grown.diagram
        c = _proportionality(coords, reduced_coordinates(
            ctx, vector_of_diagram(ctx, target)))
        if c is not None and not c.is_zero():
            return GrowthOutcome(GROWTH_PROPORTIONAL, target, c, grown.kind)
        return GrowthOutcome(GROWTH_OUTSIDE, prediction=grown.kind)
    # the only admissible diagram sharing the content chain sits m steps
    # down, where m is forced by the last row count
    content = list(y.row_content())
    content[j - 1] += 1
    m = content[-1]
    lowered = tuple(c - m for c in content)
    target = None
    if m > 0 and min(lowered) >= 0 and lowered[-1] == 0:
        parts = tuple(c for c in lowered if c)
        if all(parts[t] >= parts[t + 1] for t in range(len(parts) - 1)):
            cand = dg.YoungDiagram(ctx.n, parts)
            if dg.is_admissible(cand, ctx.h):
                target = cand
    if target is not None:
        c = _proportionality(coords, reduced_coordinates(
            ctx, vector_of_diagram(ctx, target)))
        if c is not None and not c.is_zero():
            return GrowthOutcome(GROWTH_IN_SPAN, target, c, grown.kind)
    return GrowthOutcome(GROWTH_OUTSIDE, prediction=grown.kind)


def check_offdiagonal_annihilation(ctx, y):
    """True when every off-diagonal Q kills the diagram vector."""
    v = vector_of_diagram(ctx, y)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            if i != j and not is_zero_tensor(ctx, apply_Q(i, j, v)):
                return False
    return True


# ---------------------------------------------------------------------------
# dynamical commutation and hook vectors
# ---------------------------------------------------------------------------

def state_p_diff(state, i, j):
    """p_i - p_j on a weight state (content determined up to chain shifts)."""
    g, _ = state.content_pair()
    return (j - i) + (g[i - 1] - g[j - 1])


def check_dynamical_commutation(ctx, v, i, j):
    """[p_ij+1] Q^i_i Q^j_j v = [p_ij-1] Q^j_j Q^i_i v, given that one of
    Q^i_j v, Q^j_i v vanishes.  Returns "pass", "fail" or "vacuous"."""
    if i == j:
        return "pass"
    if not (is_zero_tensor(ctx, apply_Q(i, j, v))
            or is_zero_tensor(ctx, apply_Q(j, i, v))):
        return "vacuous"
    pij = state_p_diff(v, i, j)
    lhs = apply_Q(i, i, apply_Q(j, j, v)).scale(ctx.field.q_int(pij + 1))
    rhs = apply_Q(j, j, apply_Q(i, i, v)).scale(ctx.field.q_int(pij - 1))
    return "pass" if is_zero_tensor(ctx, lhs - rhs) else "fail"


def hook_backbone(ctx, i):
    """v = Q^{i-1}_{i-1} ... Q^2_2 (Q^1_1)^{h-i} |0> of the saturated hook."""
    if ctx.h is None:
        raise UsageError("hook vectors need root-of-unity mode")
    if not 2 <= i <= ctx.n - 1:
        raise UsageError("hook row must satisfy 2 <= i <= n-1")
    v = apply_Q_power(1, 1, ctx.h - i, tensor_vacuum(ctx))
    for row in range(2, i):
        v = apply_Q(row, row, v)
    return v


def check_hook_vanishing(ctx, i):
    """Vanishing of the two saturated-hook vectors Q^i_i Q^1_1 v and
    Q^1_1 Q^i_i v; the first follows from the dynamical identity, the
    second is the computational claim."""
    v = hook_backbone(ctx, i)
    v_h = apply_Q(i, i, apply_Q(1, 1, v))
    w_h = apply_Q(1, 1, apply_Q(i, i, v))
    return is_zero_tensor(ctx, v_h), is_zero_tensor(ctx, w_h)


def check_rowcol_commutativity(ctx, states, triples=None):
    """Entries of Q in one row or one column commute, on the given states."""
    n = ctx.n
    if triples is None:
        triples = [(i, j, l) for i in range(1, n + 1)
                   for j in range(1, n + 1) for l in range(j + 1, n + 1)]
    for s in states:
        for i, j, l in triples:
            row = apply_Q(i, j, apply_Q(i, l, s)) - apply_Q(i, l, apply_Q(i, j, s))
            if not is_zero_tensor(ctx, row):
                return False
            col = apply_Q(j, i, apply_Q(l, i, s)) - apply_Q(l, i, apply_Q(j, i, s))
            if not is_zero_tensor(ctx, col):
                return False
    return True


def nilpotency(ctx, i, j):
    """(Q^i_j)^h |0> = 0 in root mode."""
    if ctx.h is None:
        raise UsageError("nilpotency is a root-of-unity statement")
    return is_zero_tensor(ctx, apply_Q_power(i, j, ctx.h, tensor_vacuum(ctx)))


def resolve_eps_sign():
    """The pinned quantum epsilon sign, EPS_SIGN (see qzm.fock)."""
    return EPS_SIGN
