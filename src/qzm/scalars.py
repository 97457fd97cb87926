"""Exact coefficient fields.

Two modes are supported:

* ``root`` -- the cyclotomic field Q(q) with q a primitive 2h-th root of
  unity, realized as Q[x] modulo Phi_{2h}(x).  An element is a coefficient
  vector of length d = phi(2h) of exact rationals, stored as integer
  numerators over a single positive denominator.
* ``generic`` -- the field of rational functions in an indeterminate q,
  stored as a canonical quotient of two integer-coefficient polynomials
  (Laurent behaviour comes out of monomial denominators).  Its kernels
  cancel before they multiply (Knuth, TAOCP Vol. 2, 4.5.1, after Henrici
  1956): a product takes the gcds of each numerator with the other
  denominator, a sum the gcd of the two denominators and then of the cross
  sum with that gcd, and an inverse swaps the canonical pair.  The gcds are
  of the small operands, never of the products, and a gcd with a monomial
  side is skipped, since only a power of q and an integer remain to cancel.

All arithmetic is exact; there is no floating point anywhere.  Scalars are
immutable values.  A field spec is immutable apart from its memo: each field
remembers the results of recent ``*``, ``+`` and ``invert`` calls in
``functools.lru_cache`` wrappers keyed by the operands' canonical (num, den)
tuples (one entry for both operand orders of ``*`` and ``+``), because
elimination repeats the same few products of q-integers and units; a
product with the field's own ``one`` returns the other operand and skips the
memo.  Each holds at most ``MEMO_SIZE`` entries and evicts the least recently
used first; q^m, [m] and [m]! are cached without bound, and so is
``tables``, the constants other modules derive from the field (bilinear
terms, determinant blocks).  ``clear_memo`` empties all of them (a
``FockContext`` calls it when it is released); they stay consistent when
threads share a field.

Working modulo Phi_{2h} rather than x^h + 1 matters: x^h + 1 has zero
divisors when 2h is not a prime power, which would make zero-testing
unsound, and zero-testing is the engine's core primitive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd
from operator import neg

ROOT = "root"
GENERIC = "generic"
# Entries per memo table (one table per op and field).  On the benchmark's
# workloads 1024 entries kept a few more hits but added about 1 MiB (3-4%)
# to peak RSS; 512 kept it within 1.5%.
MEMO_SIZE = 512


class FieldError(ArithmeticError):
    """Division by zero or inversion of zero."""


class UsageError(ValueError):
    """Invalid parameters or operands from different fields."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients ascending)
# ---------------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul_int(a, b):
    if a == (1,):           # operands are trimmed: the other is the product
        return b
    if b == (1,):
        return a
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _poly_add_int(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _poly_exact_div_int(num, den):
    """Exact division of integer polynomials; the remainder must vanish."""
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dden)
    for k in range(len(num) - 1, dden - 1, -1):
        c = num[k]
        if c % lead:
            raise ArithmeticError("inexact polynomial division")
        q = c // lead
        out[k - dden] = q
        if q:
            for j, dj in enumerate(den):
                num[k - dden + j] -= q * dj
    if any(num[:dden]):
        raise ArithmeticError("nonzero remainder in exact division")
    return _trim(out)


@lru_cache(maxsize=None)
def cyclotomic(m):
    """Phi_m as an ascending integer coefficient tuple.

    Computed by exact division of x^m - 1 by Phi_e over the proper divisors
    e of m.
    """
    if m < 1:
        raise UsageError("cyclotomic index must be positive")
    poly = _trim([-1] + [0] * (m - 1) + [1])
    for e in range(1, m):
        if m % e == 0:
            poly = _poly_exact_div_int(poly, cyclotomic(e))
    return poly


def _content(c):
    g = 0
    for x in c:
        g = gcd(g, x)
    return g


def _primitive(c):
    g = _content(c)
    if g > 1:
        return tuple(x // g for x in c)
    return tuple(c)


def _prem(a, b):
    """Pseudo-remainder of integer polynomials a, b (deg a >= deg b)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        c = a[-1]
        a = [lb * x for x in a]
        for j, bj in enumerate(b):
            a[da - db + j] -= c * bj
        while a and a[-1] == 0:
            a.pop()
    return _trim(a)


def _pgcd(a, b):
    """Primitive gcd of nonzero integer polynomials."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _primitive(r)
    if a and a[-1] < 0:
        a = tuple(-x for x in a)
    return a


# ---------------------------------------------------------------------------
# field specification
# ---------------------------------------------------------------------------

class FieldSpec:
    """Description of the coefficient field, plus its memo.

    Root mode carries h, the modulus Phi_{2h} and its degree d = phi(2h),
    plus reduction tables for x^d .. x^{2d-2}.  ``_mul``, ``_add`` and
    ``_inv`` (over the operands' (num, den) parts), ``q_power``, ``q_int``
    and ``q_factorial`` are functools caches made per field, and ``tables``
    a dict, so no memo outlives its field or is shared with an equal one;
    they change no result, only its cost (see the module docstring).
    """

    __slots__ = ("mode", "h", "degree", "modulus", "_red", "zero", "one",
                 "_mul", "_add", "_inv", "q_power", "q_int", "q_factorial",
                 "tables")

    def __init__(self, mode, h=None):
        if mode not in (ROOT, GENERIC):
            raise UsageError(f"unknown field mode {mode!r}")
        self.mode = mode
        if mode == ROOT:
            if h is None or h < 3:
                raise UsageError("root-of-unity mode requires h >= 3")
            self.h = h
            self.modulus = cyclotomic(2 * h)
            d = len(self.modulus) - 1
            self.degree = d
            # reduction rows: x^{d+j} expressed in the basis 1..x^{d-1}
            rows = []
            cur = [-c for c in self.modulus[:d]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                ov = cur[d - 1]
                cur = [0] + cur[: d - 1]
                if ov:
                    first = rows[0]
                    cur = [c + ov * f for c, f in zip(cur, first)]
                rows.append(tuple(cur))
            self._red = tuple(rows)
        else:
            if h is not None:
                raise UsageError("generic mode takes no h")
            self.h = None
            self.degree = None
            self.modulus = None
            self._red = None
        # on a miss the kernel runs on operands rebuilt from their parts
        new = RootScalar if mode == ROOT else GenericScalar
        mul, add, inv = new._mul_kernel, new._add_kernel, new._invert_kernel
        self._mul = lru_cache(MEMO_SIZE)(
            lambda an, ad, bn, bd: mul(new(self, an, ad), new(self, bn, bd)))
        self._add = lru_cache(MEMO_SIZE)(
            lambda an, ad, bn, bd: add(new(self, an, ad), new(self, bn, bd)))
        self._inv = lru_cache(MEMO_SIZE)(lambda n, d: inv(new(self, n, d)))
        self.q_power = cache(self._q_power)
        self.q_int = cache(self._q_int)
        self.q_factorial = cache(self._q_factorial)
        self.tables = {}
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def __repr__(self):
        if self.mode == ROOT:
            return f"FieldSpec(root, h={self.h})"
        return "FieldSpec(generic)"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.mode == other.mode and self.h == other.h

    def __hash__(self):
        return hash((self.mode, self.h))

    def tag(self):
        return f"root:{self.h}" if self.mode == ROOT else "generic"

    def clear_memo(self):
        """Drop every memoised result.  The cached scalars point back at this
        field, so without this they live until a cyclic collection."""
        for memo in (self._mul, self._add, self._inv, self.q_power,
                     self.q_int, self.q_factorial):
            memo.cache_clear()
        self.tables.clear()

    # -- constructors -------------------------------------------------------

    def from_int(self, v):
        if self.mode == ROOT:
            num = [0] * self.degree
            num[0] = v
            return RootScalar(self, tuple(num), 1)
        if v == 0:
            return GenericScalar(self, (), (1,))
        return GenericScalar(self, (v,), (1,))

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if self.mode == ROOT:
            num = [0] * self.degree
            num[0] = fr.numerator
            return RootScalar(self, tuple(num), fr.denominator)
        return _make_generic(self, (fr.numerator,), (fr.denominator,))

    # -- q-specific values --------------------------------------------------

    def _q_power(self, m):
        """q^m as a Scalar (negative m allowed)."""
        if self.mode == GENERIC:
            if m >= 0:
                return GenericScalar(self, (0,) * m + (1,), (1,))
            return GenericScalar(self, (1,), (0,) * (-m) + (1,))
        e = m % (2 * self.h)
        if e != m:
            return self.q_power(e)
        if e < self.degree:
            num = [0] * self.degree
            num[e] = 1
            return RootScalar(self, tuple(num), 1)
        return self.q_power(e - 1) * self.q_power(1)

    def _q_int(self, m):
        """The q-integer [m] = (q^m - q^-m)/(q - q^-1), as a power sum.

        Implemented as sign(m) * sum_j q^{|m|-1-2j} so no division is needed.
        """
        a = abs(m)
        s = self.zero
        for j in range(a):
            s = s + self.q_power(a - 1 - 2 * j)
        return -s if m < 0 else s

    def _q_factorial(self, m):
        """[m]! = [1][2]...[m]."""
        if m < 0:
            raise UsageError("q_factorial needs m >= 0")
        s = self.one
        for j in range(1, m + 1):
            s = s * self.q_int(j)
        return s

    # -- text encoding ------------------------------------------------------

    def decode(self, obj):
        """Inverse of Scalar.encode()."""
        if self.mode == ROOT:
            if len(obj) != self.degree:
                raise UsageError("bad scalar encoding length")
            fracs = [Fraction(s) for s in obj]
            den = 1
            for f in fracs:
                den = den * f.denominator // gcd(den, f.denominator)
            num = tuple(int(f * den) for f in fracs)
            return _make_root(self, num, den)
        num, den = obj
        return _make_generic(self, tuple(int(x) for x in num), tuple(int(x) for x in den))


def make_field(mode, h=None):
    """Build a FieldSpec; ``mode`` is "root" (requires h >= 3) or "generic"."""
    return FieldSpec(mode, h)


class _Scalar:
    """The memoised arithmetic both scalar types share; each names its
    exact kernels, which the field's memo calls only on a miss.  ``+`` and
    ``*`` pass the smaller ``num`` first, so a.b and b.a share one entry."""

    __slots__ = ()

    def __add__(self, other):
        fs = self.fs
        if fs is not other.fs and fs != other.fs:
            raise UsageError("scalars from different fields")
        if self.num <= other.num:
            return fs._add(self.num, self.den, other.num, other.den)
        return fs._add(other.num, other.den, self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        fs = self.fs
        if fs is not other.fs and fs != other.fs:
            raise UsageError("scalars from different fields")
        if other is fs.one:
            return self
        if self is fs.one:
            return other
        if self.num <= other.num:
            return fs._mul(self.num, self.den, other.num, other.den)
        return fs._mul(other.num, other.den, self.num, self.den)

    def invert(self):
        if self.is_zero():
            raise FieldError("inversion of zero")
        return self.fs._inv(self.num, self.den)

    def __truediv__(self, other):
        return self * other.invert()


# ---------------------------------------------------------------------------
# root-of-unity scalars
# ---------------------------------------------------------------------------

def _make_root(fs, num, den):
    if den < 0:
        den = -den
        num = tuple(-x for x in num)
    g = den
    for x in num:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        num = tuple(x // g for x in num)
        den //= g
    if not any(num):
        den = 1
    return RootScalar(fs, num, den)


def _root_add(a, b):
    da, db = a.den, b.den
    if da == db:
        num = tuple(x + y for x, y in zip(a.num, b.num))
        return _make_root(a.fs, num, da)
    num = tuple(x * db + y * da for x, y in zip(a.num, b.num))
    return _make_root(a.fs, num, da * db)


def _root_mul(a, b):
    fs = a.fs
    ca, cb = a.num, b.num
    d = fs.degree
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(ca):
        if ai:
            for j, bj in enumerate(cb):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:d]
    red = fs._red
    for j in range(d, 2 * d - 1):
        cj = conv[j]
        if cj:
            row = red[j - d]
            for t in range(d):
                rt = row[t]
                if rt:
                    out[t] += cj * rt
    return _make_root(fs, tuple(out), a.den * b.den)


def _root_invert(a):
    """The inverse of a nonzero element."""
    fs = a.fs
    nz = [i for i, c in enumerate(a.num) if c]
    if len(nz) == 1:
        # c/den * q^k inverts to den/c * q^{-k}
        k = nz[0]
        qinv = fs.q_power(-k)
        num = tuple(x * a.den for x in qinv.num)
        return _make_root(fs, num, qinv.den * a.num[k])
    # Galois norm: a^-1 = den * P / N with P the product of sigma_j(num)
    # over the units j != 1 mod 2h (sigma_j maps q to q^j), and
    # N = num * P the rational norm of num
    d, m = fs.degree, 2 * fs.h
    conj = fs.one
    for j in range(3, m, 2):
        if gcd(j, m) == 1:
            s = [0] * d
            for i in nz:
                c = a.num[i]
                for t, x in enumerate(fs.q_power(i * j).num):
                    if x:
                        s[t] += c * x
            conj = _root_mul(conj, RootScalar(fs, tuple(s), 1))
    norm = _root_mul(RootScalar(fs, a.num, 1), conj).num
    if any(norm[1:]) or not norm[0]:
        raise FieldError("non-invertible element (norm not rational)")
    return _make_root(fs, tuple(x * a.den for x in conj.num), norm[0])


class RootScalar(_Scalar):
    """Element of Q(q), q a primitive 2h-th root of unity.

    ``num`` is the ascending coefficient tuple of a polynomial in q of
    degree < d reduced mod Phi_{2h}; ``den`` a positive integer with
    gcd(num, den) = 1.  The representation is canonical, so equality is
    componentwise.
    """

    __slots__ = ("fs", "num", "den")
    _add_kernel = _root_add
    _mul_kernel = _root_mul
    _invert_kernel = _root_invert

    def __init__(self, fs, num, den):
        self.fs = fs
        self.num = num
        self.den = den

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        return (isinstance(other, RootScalar) and self.fs == other.fs
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.fs.h, self.num, self.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.num):
            if c:
                frac = Fraction(c, self.den)
                if i == 0:
                    terms.append(f"{frac}")
                elif i == 1:
                    terms.append(f"({frac})q")
                else:
                    terms.append(f"({frac})q^{i}")
        return " + ".join(terms) if terms else "0"

    def __neg__(self):
        return RootScalar(self.fs, tuple(map(neg, self.num)), self.den)

    def encode(self):
        return [f"{Fraction(c, self.den)}" for c in self.num]


# ---------------------------------------------------------------------------
# generic-q scalars
# ---------------------------------------------------------------------------

def _is_monomial(p):
    """Whether the nonzero polynomial p is c q^t: its only polynomial
    factors are then q and integers, which ``_normalise`` cancels."""
    return not any(p[:-1])


def _cancel(num, den):
    """num and den divided by their primitive gcd.  Skipped when either is
    a monomial: the gcd is then a power of q."""
    if _is_monomial(num) or _is_monomial(den):
        return num, den
    g = _pgcd(num, den)
    if len(g) > 1:
        return _poly_exact_div_int(num, g), _poly_exact_div_int(den, g)
    return num, den


def _normalise(fs, num, den):
    """The canonical form of num/den (both trimmed, den nonzero) when their
    only common factors are a power of q and an integer."""
    if not num:
        return fs.zero
    if not num[0] and not den[0]:
        t = min(next(i for i, c in enumerate(num) if c),
                next(i for i, c in enumerate(den) if c))
        num = num[t:]
        den = den[t:]
    g = gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num = tuple(x // g for x in num)
        den = tuple(x // g for x in den)
    return GenericScalar(fs, num, den)


def _make_generic(fs, num, den):
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise FieldError("zero denominator")
    num, den = _cancel(num, den)
    return _normalise(fs, num, den)


def _generic_add(a, b):
    """Henrici's sum: with g = gcd(a.den, b.den), the cross sum over
    a.den b.den / g can share a factor with g only.  Equal denominators are
    g: then the sum of the numerators over it needs one gcd."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if ad == bd:
        return _normalise(a.fs, *_cancel(_poly_add_int(an, bn), ad))
    if _is_monomial(ad) or _is_monomial(bd):
        g = (1,)
    else:
        g = _pgcd(ad, bd)
    if len(g) == 1:
        num = _poly_add_int(_poly_mul_int(an, bd), _poly_mul_int(bn, ad))
        return _normalise(a.fs, num, _poly_mul_int(ad, bd))
    ad = _poly_exact_div_int(ad, g)
    bd = _poly_exact_div_int(bd, g)
    num = _poly_add_int(_poly_mul_int(an, bd), _poly_mul_int(bn, ad))
    num, g = _cancel(num, g)
    return _normalise(a.fs, num, _poly_mul_int(_poly_mul_int(ad, bd), g))


def _generic_mul(a, b):
    """Knuth's product: cancel a.num against b.den and b.num against a.den,
    then multiply the cofactors, which are coprime."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    an, bd = _cancel(an, bd)
    bn, ad = _cancel(bn, ad)
    return _normalise(a.fs, _poly_mul_int(an, bn), _poly_mul_int(ad, bd))


def _generic_invert(a):
    """The inverse of a nonzero element: num and den swapped, which are
    coprime already."""
    if a.num[-1] < 0:
        return GenericScalar(a.fs, tuple(-x for x in a.den),
                             tuple(-x for x in a.num))
    return GenericScalar(a.fs, a.den, a.num)


class GenericScalar(_Scalar):
    """Rational function P(q)/Q(q) in canonical form.

    Canonical: no common polynomial or integer factor, no common monomial
    factor, positive leading denominator coefficient; zero is ()/(1,).
    The form is unique, so the kernels, which cancel before they multiply,
    return what one full gcd of the plain cross products would.
    """

    __slots__ = ("fs", "num", "den")
    _add_kernel = _generic_add
    _mul_kernel = _generic_mul
    _invert_kernel = _generic_invert

    def __init__(self, fs, num, den):
        self.fs = fs
        self.num = num
        self.den = den

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, GenericScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash(("generic", self.num, self.den))

    def __repr__(self):
        def poly(c):
            if not c:
                return "0"
            parts = []
            for i, x in enumerate(c):
                if x:
                    parts.append(f"{x}" if i == 0 else (f"{x}q" if i == 1 else f"{x}q^{i}"))
            return " + ".join(parts)
        if self.den == (1,):
            return poly(self.num)
        return f"({poly(self.num)})/({poly(self.den)})"

    def __neg__(self):
        return GenericScalar(self.fs, tuple(-x for x in self.num), self.den)

    def encode(self):
        return [list(self.num), list(self.den)]
