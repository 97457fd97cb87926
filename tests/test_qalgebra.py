import contextlib
import io

import pytest

from qzm import cli, fock, qalgebra as qa
from qzm.basis import FockContext, RelationInconsistency
from qzm.certificate import chain_rows
from qzm.diagrams import YoungDiagram, enumerate_diagrams
from qzm.fock import EPS_SIGN, eps_tag, word_row_content
from qzm.scalars import UsageError


def content_pair(state):
    """The (row content, barred row content) that every key of a weight
    vector shares; ValueError for a state that mixes contents."""
    [pair] = {(word_row_content(state.n, w), word_row_content(state.n, wb))
              for w, wb in state.terms}
    return pair


def test_apply_Q_structure(ctx31):
    s = qa.apply_Q(1, 1, qa.tensor_vacuum(ctx31))
    assert len(s.terms) == 3
    for (w, wb) in s.terms:
        assert len(w) == 1 and len(wb) == 1
        assert w[0] // 3 == 0 and wb[0] // 3 == 0     # both rows are 1
        assert w[0] % 3 == wb[0] % 3                  # matching flavors
    s2 = qa.apply_Q(2, 1, s)
    g, gb = content_pair(s2)
    assert g == (1, 1, 0) and gb == (2, 0, 0)


def test_vacuum_annihilated_by_all_but_Q11(ctx31):
    vac = qa.tensor_vacuum(ctx31)
    for i in range(1, 4):
        for j in range(1, 4):
            dead = qa.is_zero_tensor(ctx31, qa.apply_Q(i, j, vac))
            assert dead == (not (i == 1 and j == 1))


@pytest.mark.parametrize("fixture", ["ctx21", "ctx22", "ctx31"])
def test_nilpotency(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            assert qa.nilpotency(ctx, i, j)


def test_nilpotency_fails_generically(gctx2):
    s = qa.tensor_vacuum(gctx2)
    for _ in range(3):                 # h = 3 for the (2,1) comparison point
        s = qa.apply_Q(1, 1, s)
    assert not qa.is_zero_tensor(gctx2, s)


@pytest.mark.parametrize("fixture", ["ctx22", "ctx31"])
def test_column_vector_vanishes(fixture, request):
    """Q^2_2 (Q^1_1)^{h-1} |0> = 0: first-column growth on the saturated row."""
    ctx = request.getfixturevalue(fixture)
    s = qa.tensor_vacuum(ctx)
    for _ in range(ctx.h - 1):
        s = qa.apply_Q(1, 1, s)
    assert qa.is_zero_tensor(ctx, qa.apply_Q(2, 2, s))


def test_fprime_dimension_n2(ctx21, ctx22):
    for ctx, expected in [(ctx21, 3), (ctx22, 4)]:
        res = qa.fprime_dimension(ctx)
        assert res.dimension == expected
        assert all(r.nonzero for r in res.records)
        assert [r.diagram.parts for r in res.records] == \
            [()] + [(m,) for m in range(1, expected)]


def test_fprime_dimension_n3(ctx31):
    res = qa.fprime_dimension(ctx31)
    assert res.dimension == 7
    assert all(r.nonzero for r in res.records)


def test_diagram_vector_contents_distinct(ctx31):
    seen = set()
    for y in enumerate_diagrams(3, 4):
        v = qa.vector_of_diagram(ctx31, y)
        pair = content_pair(v)
        assert pair[0] == pair[1]          # p and pbar eigenvalues coincide
        assert pair not in seen
        seen.add(pair)


def test_vector_of_diagram_validates(ctx31):
    with pytest.raises(UsageError):
        qa.vector_of_diagram(ctx31, YoungDiagram(3, (3, 1)))   # spread 5 > 4
    empty = qa.vector_of_diagram(ctx31, YoungDiagram(3))
    assert list(empty.terms) == [(b"", b"")]


def test_growth_legal_proportional(ctx31):
    out = qa.check_growth(ctx31, YoungDiagram(3, (1,)), 2)
    assert out.kind == qa.GROWTH_PROPORTIONAL
    assert out.target.parts == (1, 1)
    assert not out.coefficient.is_zero()


def test_growth_standard_rule_zero(ctx31):
    out = qa.check_growth(ctx31, YoungDiagram(3, (1, 1)), 2)
    assert out.prediction == "standard_rule_violation"
    assert out.kind == qa.GROWTH_ZERO


def test_growth_row_overflow_lands_in_span(ctx21, ctx31):
    # n=2: Q^2_2 Q^1_1 |0> is a nonzero multiple of the vacuum
    out = qa.check_growth(ctx21, YoungDiagram(2, (1,)), 2)
    assert out.kind == qa.GROWTH_IN_SPAN
    assert out.target.parts == ()
    # n=3: the full column collapses one determinant step down
    out = qa.check_growth(ctx31, YoungDiagram(3, (1, 1)), 3)
    assert out.kind in (qa.GROWTH_IN_SPAN, qa.GROWTH_ZERO)


def test_growth_saturated_first_row_is_the_open_case(ctx31):
    """First-row additions to spread-saturated multi-row diagrams are the
    hook vectors whose vanishing the constructive quotient does not see."""
    out = qa.check_growth(ctx31, YoungDiagram(3, (2, 1)), 1)
    assert out.prediction == "spread_violation"
    assert out.kind == qa.GROWTH_OUTSIDE


def test_offdiagonal_annihilation(ctx21, ctx31):
    for ctx in (ctx21, ctx31):
        for y in enumerate_diagrams(ctx.n, ctx.h):
            assert qa.check_offdiagonal_annihilation(ctx, y)


def test_dynamical_commutation(ctx31):
    vac = qa.diagram_coordinates(ctx31, YoungDiagram(3))
    assert qa.check_dynamical_commutation(ctx31, vac, 2, 1) == "pass"
    assert qa.check_dynamical_commutation(ctx31, vac, 1, 1) == "pass"
    for y in enumerate_diagrams(3, 4):
        if y.boxes > 2:
            continue
        v = qa.diagram_coordinates(ctx31, y)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            assert qa.check_dynamical_commutation(ctx31, v, i, j) in ("pass", "vacuous")


def test_rowcol_commutativity(ctx31):
    vectors = [qa.diagram_coordinates(ctx31, YoungDiagram(3, p))
               for p in ((), (1,))]
    assert qa.check_rowcol_commutativity(ctx31, vectors)


def test_hook_vanishing(ctx31, ctx32):
    for ctx in (ctx31, ctx32):
        v_zero, w_zero = qa.check_hook_vanishing(ctx, 2)
        assert v_zero
        # the w vector is the open claim; the constructive quotient keeps it
        assert not w_zero
    with pytest.raises(UsageError):
        qa.check_hook_vanishing(ctx31, 3)


def test_eps_resolution():
    assert EPS_SIGN == -1 and qa.resolve_eps_sign() == EPS_SIGN
    assert eps_tag() == "qeps-1"


@pytest.mark.parametrize("sign", [-1, 1])
def test_both_eps_signs_pass_calibration(sign, monkeypatch):
    """Both signs are consistent conventions (q <-> q^{-1} mirrors)."""
    monkeypatch.setattr(fock, "EPS_SIGN", sign)
    ctx = FockContext(2, 1)
    ctx.block_basis((1, 1), (1, 1))          # the vacuum class survives
    res = qa.fprime_dimension(ctx)
    assert res.dimension == 3 and all(r.nonzero for r in res.records)
    ctx3 = FockContext(3, 1)
    ctx3.block_basis((1, 1, 1), (1, 1, 1))
    assert qa.check_offdiagonal_annihilation(ctx3, YoungDiagram(3, (1,)))
    out = qa.check_growth(ctx3, YoungDiagram(3, (1, 1)), 3)
    assert out.kind != qa.GROWTH_OUTSIDE


def test_eps_sign_keeps_integral_structure_constants(monkeypatch):
    """Over the full growth scans, EPS_SIGN leaves the reduction of every
    live class rep in Z[q]; the mirror sign does not (all 40 scalars of the
    reductions of pivot reps at (2,3) and 225 of 691 at (3,1) carry a
    denominator)."""
    for n, k in ((2, 3), (3, 1)):
        dens = {}
        for sign in (-1, 1):
            monkeypatch.setattr(fock, "EPS_SIGN", sign)
            ctx = FockContext(n, k)
            for y in enumerate_diagrams(n, ctx.h):
                for j in range(1, n + 1):
                    qa.check_growth(ctx, y, j)
            dens[sign] = [s.den for bb in ctx._blocks.values()
                          for w in chain_rows(ctx.field, n, ctx.h, bb.key)[0]
                          if w not in bb.basis_words
                          for _, s in bb.reduce_word(w)]
        assert dens[-1] and all(d == 1 for d in dens[-1])
        assert any(d != 1 for d in dens[1])


def test_growth_coefficient_frozen(ctx22):
    """Q^2_2 Q^1_1 |0> = q[2]|0> at h=4: the structure constant is pinned."""
    out = qa.check_growth(ctx22, YoungDiagram(2, (1,)), 2)
    f = ctx22.field
    assert out.kind == qa.GROWTH_IN_SPAN
    assert out.coefficient == f.q_power(1) * f.q_int(2)


# ---------------------------------------------------------------------------
# the reduced path against free states
# ---------------------------------------------------------------------------

def proportional(a, b):
    """The scalar c with a == c * b, both nonzero, or None."""
    if not b or a.keys() != b.keys():
        return None
    k = min(b)
    c = a[k] / b[k]
    return c if not c.is_zero() and all(a[x] == c * b[x] for x in b) else None


def free_commutation(ctx, v, i, j):
    """check_dynamical_commutation on a free state, reducing at the end."""
    zero = qa.is_zero_tensor
    if i == j:
        return "pass"
    if not (zero(ctx, qa.apply_Q(i, j, v)) or zero(ctx, qa.apply_Q(j, i, v))):
        return "vacuous"
    g, _ = content_pair(v)
    pij = (j - i) + (g[i - 1] - g[j - 1])
    lhs = qa.apply_Q(i, i, qa.apply_Q(j, j, v)).scale(ctx.field.q_int(pij + 1))
    rhs = qa.apply_Q(j, j, qa.apply_Q(i, i, v)).scale(ctx.field.q_int(pij - 1))
    return "pass" if zero(ctx, lhs - rhs) else "fail"


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (2, 5)])
def test_reduced_path_matches_free_states(n, k):
    """Memoised diagram coordinates, growth outcomes, off-diagonal
    annihilation, nilpotency and dynamical commutation equal what reducing
    the free states gives, on every admissible diagram."""
    ctx = FockContext(n, k)
    ys = enumerate_diagrams(n, ctx.h)
    free = {y: qa.reduced_coordinates(ctx, qa.vector_of_diagram(ctx, y)) for y in ys}
    for y in ys:
        assert qa.diagram_coordinates(ctx, y) == free[y]
        for j in range(1, n + 1):
            out = qa.check_growth(ctx, y, j)
            coords = qa.reduced_coordinates(
                ctx, qa.apply_Q(j, j, qa.vector_of_diagram(ctx, y)))
            assert out.coordinates == coords
            found = [(t, c) for t in ys
                     if (c := proportional(coords, free[t])) is not None]
            kind = (qa.GROWTH_ZERO if not coords
                    else qa.GROWTH_OUTSIDE if not found
                    else qa.GROWTH_PROPORTIONAL if out.prediction == "diagram"
                    else qa.GROWTH_IN_SPAN)
            assert out.kind == kind
            if found:
                assert (out.target, out.coefficient) == found[0]
        assert qa.check_offdiagonal_annihilation(ctx, y) == all(
            i == j or not qa.reduced_coordinates(
                ctx, qa.apply_Q(i, j, qa.vector_of_diagram(ctx, y)))
            for i in range(1, n + 1) for j in range(1, n + 1))
        if y.boxes <= 2:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert qa.check_dynamical_commutation(
                        ctx, qa.diagram_coordinates(ctx, y), i, j) == \
                        free_commutation(ctx, qa.vector_of_diagram(ctx, y), i, j)
    for i, j in ((1, 1), (1, 2)):
        assert qa.nilpotency(ctx, i, j) == qa.is_zero_tensor(
            ctx, qa.apply_Q_power(i, j, ctx.h, qa.tensor_vacuum(ctx)))


@pytest.mark.parametrize("k", [1, 2])
def test_hook_coordinates_match_free_states(k):
    ctx = FockContext(3, k)
    v = qa.hook_backbone(ctx, 2)
    assert qa.hook_coordinates(ctx, 2, 1) == qa.reduced_coordinates(
        ctx, qa.apply_Q(2, 2, qa.apply_Q(1, 1, v)))
    assert qa.hook_coordinates(ctx, 2, 2) == qa.reduced_coordinates(
        ctx, qa.apply_Q(1, 1, qa.apply_Q(2, 2, v)))


def test_fprime_dimension_checks_the_reduced_weights():
    """A reduced key whose side leaves its diagram's row content is an
    inconsistency, as a mismatched free weight was."""
    ctx = FockContext(3, 1)
    assert qa.fprime_dimension(ctx).dimension == 7
    one = ctx.field.one
    ctx._diagrams[(1,)] = {(bytes([0]), bytes([1])): one}     # allowed
    assert qa.fprime_dimension(ctx).dimension == 7
    ctx._diagrams[(1,)] = {(bytes([0]), bytes([3])): one}     # row 2 on one side
    with pytest.raises(RelationInconsistency):
        qa.fprime_dimension(ctx)


def test_fprime_reduces_few_terms_and_each_diagram_once(monkeypatch):
    """A cold ``fprime --n 3 --k 1`` hands 1 939 free terms to
    ``reduced_coordinates`` (2 263 when the row/column commutativity check
    applied each single Q once per pair, 2 347 when every growth step
    applied its Q as well, 7 352 when every diagram vector was reduced as a
    free state), and the
    memo applies one Q per nonempty diagram.  A growth step whose box ends
    the grown diagram's last row reads the memo and applies none: in row 1,
    those of (), (1,) and (2,)."""
    terms = []
    reduce = qa.reduced_coordinates
    monkeypatch.setattr(qa, "reduced_coordinates", lambda ctx, state: (
        terms.append(len(state.terms)) or reduce(ctx, state)))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["fprime", "--n", "3", "--k", "1", "--format", "json"])
    assert sum(terms) == 1939
    calls = []
    apply = qa.reduced_apply_Q
    monkeypatch.setattr(qa, "reduced_apply_Q", lambda *args: (
        calls.append(args[1:3]) or apply(*args)))
    ctx = FockContext(3, 1)
    ys = enumerate_diagrams(3, ctx.h)
    qa.fprime_dimension(ctx)
    assert sorted(calls) == sorted((y.rows, y.rows) for y in ys if y.boxes)
    calls.clear()
    qa.fprime_dimension(ctx)
    for y in ys:
        qa.check_growth(ctx, y, 1)
    assert calls == [(1, 1)] * (len(ys) - 3)
