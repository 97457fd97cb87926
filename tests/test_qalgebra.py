import pytest

from qzm import qalgebra as qa
from qzm.basis import FockContext
from qzm.diagrams import YoungDiagram, enumerate_diagrams
from qzm.fock import EPS_SIGN, eps_tag
from qzm.scalars import UsageError


def test_apply_Q_structure(ctx31):
    s = qa.apply_Q(1, 1, qa.tensor_vacuum(ctx31))
    assert len(s.terms) == 3
    for (w, wb) in s.terms:
        assert len(w) == 1 and len(wb) == 1
        assert w[0] // 3 == 0 and wb[0] // 3 == 0     # both rows are 1
        assert w[0] % 3 == wb[0] % 3                  # matching flavors
    s2 = qa.apply_Q(2, 1, s)
    g, gb = s2.content_pair()
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
        pair = v.content_pair()
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
    vac = qa.tensor_vacuum(ctx31)
    assert qa.check_dynamical_commutation(ctx31, vac, 2, 1) == "pass"
    assert qa.check_dynamical_commutation(ctx31, vac, 1, 1) == "pass"
    for y in enumerate_diagrams(3, 4):
        if y.boxes > 2:
            continue
        v = qa.vector_of_diagram(ctx31, y)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            assert qa.check_dynamical_commutation(ctx31, v, i, j) in ("pass", "vacuous")


def test_rowcol_commutativity(ctx31):
    states = [qa.tensor_vacuum(ctx31),
              qa.apply_Q(1, 1, qa.tensor_vacuum(ctx31))]
    assert qa.check_rowcol_commutativity(ctx31, states)


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
    assert eps_tag(EPS_SIGN) == "qeps-1"
    assert FockContext(3, 1).eps_sign == EPS_SIGN


@pytest.mark.parametrize("sign", [-1, 1])
def test_both_eps_signs_pass_calibration(sign):
    """Both signs are consistent conventions (q <-> q^{-1} mirrors)."""
    ctx = FockContext(2, 1, eps_sign=sign)
    ctx.block_basis((1, 1), (1, 1))          # the vacuum class survives
    res = qa.fprime_dimension(ctx)
    assert res.dimension == 3 and all(r.nonzero for r in res.records)
    ctx3 = FockContext(3, 1, eps_sign=sign)
    ctx3.block_basis((1, 1, 1), (1, 1, 1))
    assert qa.check_offdiagonal_annihilation(ctx3, YoungDiagram(3, (1,)))
    out = qa.check_growth(ctx3, YoungDiagram(3, (1, 1)), 3)
    assert out.kind != qa.GROWTH_OUTSIDE


def test_eps_sign_keeps_integral_structure_constants():
    """Over the full growth scans, EPS_SIGN leaves every echelon tail in
    Z[q]; the mirror sign does not (all 40 class-coordinate tails at (2,3)
    and 225 of 691 at (3,1) carry a denominator)."""
    for n, k in ((2, 3), (3, 1)):
        dens = {}
        for sign in (-1, 1):
            ctx = FockContext(n, k, eps_sign=sign)
            for y in enumerate_diagrams(n, ctx.h):
                for j in range(1, n + 1):
                    qa.check_growth(ctx, y, j)
            dens[sign] = [s.den for bb in ctx._blocks.values()
                          for tail in bb.rref.values() for s in tail.values()]
        assert dens[-1] and all(d == 1 for d in dens[-1])
        assert any(d != 1 for d in dens[1])


def test_growth_coefficient_frozen(ctx22):
    """Q^2_2 Q^1_1 |0> = q[2]|0> at h=4: the structure constant is pinned."""
    out = qa.check_growth(ctx22, YoungDiagram(2, (1,)), 2)
    f = ctx22.field
    assert out.kind == qa.GROWTH_IN_SPAN
    assert out.coefficient == f.q_power(1) * f.q_int(2)
