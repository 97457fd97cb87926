import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, cyclotomic_poly, symbols

from qzm.basis import FockContext
from qzm.scalars import (FieldError, GENERIC, MEMO_SIZE, ROOT, UsageError,
                         _generic_add, _generic_invert, _generic_mul,
                         _make_generic, _poly_mul_int, _root_add,
                         _root_invert, _root_mul, cyclotomic, make_field)


def sympy_cyclotomic(m):
    x = symbols("x")
    return tuple(reversed(Poly(cyclotomic_poly(m, x), x).all_coeffs()))


@pytest.mark.parametrize("m", list(range(1, 41)))
def test_cyclotomic_against_sympy(m):
    assert cyclotomic(m) == sympy_cyclotomic(m)


def test_phi8_and_phi6_frozen():
    assert cyclotomic(8) == (1, 0, 0, 0, 1)      # x^4 + 1
    assert cyclotomic(6) == (1, -1, 1)           # x^2 - x + 1


@pytest.mark.parametrize("h", [3, 4, 5, 6, 7, 8])
def test_modulus_divides_and_degree(h):
    f = make_field(ROOT, h)
    # Phi_{2h} divides x^h + 1: q^h = -1 as a scalar identity
    assert f.q_power(h) == -f.one
    assert f.q_power(2 * h) == f.one
    # degree is Euler's totient of 2h
    m = 2 * h
    assert f.degree == sum(1 for t in range(1, m + 1) if _gcd(t, m) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_make_field_rejects_small_h():
    with pytest.raises(UsageError):
        make_field(ROOT, 2)
    with pytest.raises(UsageError):
        make_field(ROOT)


def test_q_inverse_h4(field_h4):
    # q^{-1} = -q^3 when the modulus is x^4 + 1
    assert field_h4.q_power(-1).encode() == ["0", "0", "0", "-1"]


def test_q_int_values_h4(field_h4):
    f = field_h4
    assert f.q_int(0).is_zero()
    assert f.q_int(1) == f.one
    assert f.q_int(4).is_zero()
    assert f.q_int(2).encode() == ["0", "1", "0", "-1"]   # q - q^3
    assert f.q_factorial(0) == f.one
    assert f.q_factorial(1) == f.one
    assert f.q_factorial(2) == f.q_int(2)
    assert f.q_factorial(4).is_zero()


@pytest.mark.parametrize("h", [3, 4, 5, 6, 7, 8])
def test_q_int_identities(h):
    f = make_field(ROOT, h)
    for m in range(-3 * h, 3 * h + 1):
        assert f.q_int(-m) == -f.q_int(m)
        assert f.q_int(m + 2 * h) == f.q_int(m)
        assert f.q_int(m).is_zero() == (m % h == 0)
        assert f.q_int(2) * f.q_int(m) == f.q_int(m + 1) + f.q_int(m - 1)
    for m in range(1, h):
        assert f.q_int(h - m) == f.q_int(m)


def test_generic_q_int_never_vanishes(field_generic):
    for m in range(1, 12):
        assert not field_generic.q_int(m).is_zero()
        assert field_generic.q_int(-m) == -field_generic.q_int(m)
    assert field_generic.q_int(0).is_zero()
    g = field_generic
    for m in range(-6, 7):
        assert g.q_int(2) * g.q_int(m) == g.q_int(m + 1) + g.q_int(m - 1)


def test_division_by_zero(field_h4):
    with pytest.raises(FieldError):
        field_h4.zero.invert()
    with pytest.raises(FieldError):
        field_h4.one / field_h4.zero


def test_mixed_fields_rejected(field_h4):
    other = make_field(ROOT, 5)
    with pytest.raises(UsageError):
        field_h4.one + other.one


def scalars(h):
    f = make_field(ROOT, h)

    def build(coeffs, den):
        s = f.zero
        for j, c in enumerate(coeffs):
            if c:
                s = s + f.q_power(j) * f.from_fraction(Fraction(c, den))
        return s

    return st.builds(
        build,
        st.lists(st.integers(-9, 9), min_size=f.degree, max_size=f.degree),
        st.integers(1, 9),
    )


@settings(max_examples=60, deadline=None)
@given(a=scalars(5), b=scalars(5), c=scalars(5))
def test_field_axioms_h5(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(a=scalars(6))
def test_inverse_and_roundtrip_h6(a):
    f = make_field(ROOT, 6)
    assert f.decode(a.encode()) == a
    if not a.is_zero():
        assert a * a.invert() == f.one


@pytest.mark.parametrize("h", list(range(3, 12)))
def test_inverse_dense_seeded(h):
    f = make_field(ROOT, h)
    rng = random.Random(h)
    for _ in range(30):
        den = rng.randint(1, 9)
        a = f.decode([str(Fraction(rng.randint(-9, 9), den))
                      for _ in range(f.degree)])
        if not a.is_zero():
            assert a * a.invert() == f.one


@settings(max_examples=40, deadline=None)
@given(num=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
       den=st.lists(st.integers(-6, 6), min_size=1, max_size=3))
def test_generic_canonical_roundtrip(num, den, field_generic):
    from qzm.scalars import _make_generic
    if not any(den):
        den = [1]
    s = _make_generic(field_generic, tuple(num), tuple(den))
    assert field_generic.decode(s.encode()) == s
    if not s.is_zero():
        assert s * s.invert() == field_generic.one
        # canonical form is unique: re-normalizing is the identity
        assert _make_generic(field_generic, s.num, s.den) == s


def _kernel_operands(f, rng):
    """Rational functions built from small factors: integer content, q,
    repeated and shared factors, constant and monomial denominators and
    negative leading coefficients.  Each comes with its negative and with
    2 times its inverse, so that sums cancel to zero and products to
    constants, and two share a denominator that their sum cancels in
    part."""
    factors = [(1, 1), (-1, 1), (2, 1), (1, 0, 1), (1, 1, 1), (0, 1),
               (0, 0, 1), (3,), (-2,)]

    def product(count):
        p = (rng.choice((1, -1)),)
        for _ in range(count):
            p = _poly_mul_int(p, rng.choice(factors))
        return p

    out = [f.zero, f.one, -f.one, f.q_power(-2), f.from_fraction("-3/4")]
    for _ in range(24):
        out.append(_make_generic(f, product(rng.randint(0, 3)),
                                 product(rng.randint(0, 3))))
    for a in out[5:17]:
        out.append(-a)
        out.append(_make_generic(f, tuple(2 * x for x in a.den), a.num))
    # one denominator whose numerators sum to a multiple of its factor:
    # q/(1+q)^2 + 1/(1+q)^2 = 1/(1+q)
    out.append(_make_generic(f, (0, 1), (1, 2, 1)))
    out.append(_make_generic(f, (1,), (1, 2, 1)))
    return out


def test_generic_kernels_match_full_canonicalisation(field_generic):
    """Each kernel cancels before it multiplies; what it returns must equal
    one full canonicalisation of the plain cross products (of the swapped
    pair for the inverse), whose canonical form is unique."""
    f = field_generic
    ops = _kernel_operands(f, random.Random(7))
    sums_to_zero = products_to_constants = 0
    for a in ops:
        if not a.is_zero():
            assert _same(_generic_invert(a), _make_generic(f, a.den, a.num))
        for b in ops:
            prod = _make_generic(f, _poly_mul_int(a.num, b.num),
                                 _poly_mul_int(a.den, b.den))
            assert _same(_generic_mul(a, b), prod), (a, b)
            x = _poly_mul_int(a.num, b.den)
            y = _poly_mul_int(b.num, a.den)
            cross = [0] * max(len(x), len(y))
            for i, c in enumerate(x):
                cross[i] += c
            for i, c in enumerate(y):
                cross[i] += c
            total = _make_generic(f, tuple(cross),
                                  _poly_mul_int(a.den, b.den))
            assert _same(_generic_add(a, b), total), (a, b)
            sums_to_zero += total.is_zero() and not a.is_zero()
            products_to_constants += (prod.den == (1,) and len(prod.num) == 1
                                      and len(a.num) + len(a.den) > 2)
    assert sums_to_zero and products_to_constants


# ---------------------------------------------------------------------------
# the per-field memo of *, + and invert
# ---------------------------------------------------------------------------

def _memo_operands(f, rng):
    """Each of four numerators over each of three denominators, so that two
    operands often share a numerator or a denominator and a memo key that
    dropped either would collide."""
    if f.mode == ROOT:
        nums = [[rng.randint(-4, 4) for _ in range(f.degree - 1)] + [1]
                for _ in range(4)]
        return [f.decode([str(Fraction(c, d)) for c in num])
                for num in nums for d in (1, 2, 3)]
    nums = [tuple(rng.randint(-3, 3) for _ in range(2)) + (1,)
            for _ in range(4)]
    dens = [(1,), (1, 1), (2, -1, 1)]
    return [_make_generic(f, num, den) for num in nums for den in dens]


def _same(a, b):
    return type(a) is type(b) and (a.num, a.den) == (b.num, b.den)


@pytest.mark.parametrize("h", list(range(3, 12)) + [None])
def test_memo_matches_the_raw_kernels(h):
    f = make_field(GENERIC) if h is None else make_field(ROOT, h)
    mul, add, invert = ((_generic_mul, _generic_add, _generic_invert)
                        if h is None else (_root_mul, _root_add, _root_invert))
    ops = _memo_operands(f, random.Random(h))
    for _ in range(2):          # the second pass is served by the memo
        for a in ops:
            assert _same(a.invert(), invert(a))
            for b in ops:
                assert _same(a * b, mul(a, b))
                assert _same(a + b, add(a, b))
                assert _same(a - b, add(a, -b))


def test_memo_keeps_fields_apart():
    """h=4 and h=5 both have degree 4, so their scalars can have equal
    (num, den); a product warmed up in one field must not serve the other."""
    f4, f5 = make_field(ROOT, 4), make_field(ROOT, 5)
    a4, b4 = f4.decode(["1", "2", "0", "-1"]), f4.decode(["0", "1", "1/2", "0"])
    a5, b5 = f5.decode(["1", "2", "0", "-1"]), f5.decode(["0", "1", "1/2", "0"])
    for a, b in ((a4, b4), (a5, b5)):
        a * b, b * a, a + b, b + a, a.invert()
    g = make_field(GENERIC)
    ag = g.q_power(1) + g.one
    ag * ag, ag + ag
    for x, y in ((a4, b5), (b5, a4), (a5, b4), (a4, ag), (ag, a4)):
        with pytest.raises(UsageError):
            x * y
        with pytest.raises(UsageError):
            x + y


@pytest.mark.parametrize("h", [5, None])
def test_products_with_one_skip_the_memo(h):
    """x * one and one * x are x itself, with no memo entry; a product with
    another field's one still raises, and -x is x * -1."""
    f = make_field(GENERIC) if h is None else make_field(ROOT, h)
    x = f.q_int(3) + f.q_power(1)
    products = f._mul.cache_info()
    assert x * f.one is x and f.one * x is x
    assert f._mul.cache_info() == products
    for g in (make_field(ROOT, 4), make_field(ROOT, 5), make_field(GENERIC)):
        if g != f:
            with pytest.raises(UsageError):
                x * g.one
            with pytest.raises(UsageError):
                g.one * x
    assert -x == x * f.from_int(-1) and -x != x


@pytest.mark.parametrize("mode", [ROOT, GENERIC])
def test_memo_tables_stay_bounded(mode):
    f = make_field(mode, 7 if mode == ROOT else None)
    b = f.q_int(3)
    for i in range(MEMO_SIZE + 100):
        a = f.from_int(i + 2) * f.q_power(1)
        a * b, a + b, a.invert()
        assert max(t.cache_info().currsize
                   for t in (f._mul, f._add, f._inv)) <= MEMO_SIZE
    assert [t.cache_info().currsize for t in (f._mul, f._add, f._inv)] \
        == [MEMO_SIZE] * 3


def _memo_sizes(f):
    return [m.cache_info().currsize for m in (
        f._mul, f._add, f._inv, f.q_power, f.q_int, f.q_factorial)]


@pytest.mark.parametrize("mode", [ROOT, GENERIC])
def test_memo_evicts_least_recently_used(mode):
    """Once a table is full, a miss evicts its least recently used entry:
    the oldest entry survives if it was hit after it was inserted, and the
    next oldest goes instead."""
    f = make_field(mode, 7 if mode == ROOT else None)
    b = f.q_int(3)
    ops = [f.from_int(i + 2) * f.q_power(1) for i in range(MEMO_SIZE + 1)]
    ops[0].invert()             # a root inverse reads q^-1 through the memo
    tables = (f._mul, f._add, f._inv)
    for t in tables:
        t.cache_clear()

    def use(a):
        a * b, a + b, a.invert()
        return [t.cache_info()[:2] for t in tables]    # (hits, misses)

    for a in ops[:MEMO_SIZE]:
        use(a)
    assert use(ops[0]) == [(1, MEMO_SIZE)] * 3
    assert use(ops[MEMO_SIZE]) == [(1, MEMO_SIZE + 1)] * 3
    assert use(ops[0]) == [(2, MEMO_SIZE + 1)] * 3     # kept: hit last
    assert use(ops[1]) == [(2, MEMO_SIZE + 2)] * 3     # evicted
    assert [t.cache_info().currsize for t in tables] == [MEMO_SIZE] * 3
    f.clear_memo()
    assert not any(_memo_sizes(f))


def test_released_context_frees_its_memo():
    """The memo's scalars point back at the field, so only a cyclic
    collection would free them; the context empties the memo itself."""
    gc.collect()
    gc.disable()
    try:
        ctx = FockContext(2, 2)
        ctx.family_basis((2, 1))
        field = ctx.field
        assert all(_memo_sizes(field))
        del ctx
        assert not any(_memo_sizes(field))
    finally:
        gc.enable()
