"""Fock-module construction tests.

The heavyweight oracles here are independent of the production code paths:
a dense Gaussian eliminator for quotient cross-checks, and Kostka numbers
(semistandard tableau counts) for generic-mode block dimensions, which the
module structure must reproduce exactly.
"""

import random
from itertools import combinations, permutations, product

import pytest

from qzm import fock
from qzm.basis import (FockContext, _compositions, _level_words, chain_levels,
                       class_size, quotient_basis)
from qzm.cli import SWEEP_LETTERS, _sweep_contents
from qzm.fock import (State, class_words, word_from_letters,
                      word_is_dead, word_row_content, word_sort_key)
from qzm.qalgebra import apply_Q, tensor_vacuum
from qzm.scalars import GENERIC, ROOT, UsageError, make_field
from qzm.weights import epsilon, p_diff


# ---------------------------------------------------------------------------
# words and states
# ---------------------------------------------------------------------------

def test_word_weight_counts_rows():
    w = word_from_letters(2, [(1, 1), (1, 2)])
    assert word_row_content(2, w) == (2, 0)
    assert p_diff(word_row_content(2, w), 1, 2) == 3
    assert p_diff(word_row_content(2, b""), 1, 2) == 1
    # one letter of each row leaves the differences at vacuum values
    ww = word_row_content(3, word_from_letters(3, [(3, 1), (1, 2), (2, 2)]))
    vac = word_row_content(3, b"")
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            assert p_diff(ww, j, l) == p_diff(vac, j, l)


def test_dead_word_predicate():
    n, h = 2, 3
    assert word_is_dead(n, h, word_from_letters(n, [(1, 1), (2, 1)]))
    assert not word_is_dead(n, h, word_from_letters(n, [(2, 1), (1, 1)]))
    assert word_is_dead(n, h, word_from_letters(n, [(1, 1)] * 3))
    assert not word_is_dead(n, None, word_from_letters(n, [(1, 1)] * 9))
    assert not word_is_dead(n, h, b"")


def test_word_order_prefers_longer_words():
    short = word_from_letters(2, [(1, 1)])
    long_ = word_from_letters(2, [(1, 1), (1, 2)])
    assert word_sort_key(long_) < word_sort_key(short)
    assert word_sort_key(b"") > word_sort_key(short)


@pytest.mark.parametrize("n,rc,fc", [
    (2, (0, 0), (0, 0)), (2, (3, 2), (1, 4)), (2, (5, 2), (3, 4)),
    (3, (0, 2, 1), (3, 0, 0)), (3, (2, 2, 1), (2, 2, 1)),
    (4, (1, 1, 1, 1), (2, 1, 0, 1)),
])
def test_class_words_match_sorted_permutations(n, rc, fc):
    """Same words in the same order as sorting the distinct permutations
    (a seeded shuffle of this list picks verify-algebra's samples)."""
    def arrangements(content):
        return sorted(set(permutations(
            [v for v in range(n) for _ in range(content[v])])))
    expected = [bytes(r * n + f for r, f in zip(rs, fs))
                for rs in arrangements(rc) for fs in arrangements(fc)]
    assert class_words(n, rc, fc) == expected


def test_apply_letter(ctx21):
    vac = State.vacuum(ctx21.field, 2)
    s = vac.apply_letter(1, 1)
    assert list(s.terms) == [word_from_letters(2, [(1, 1)])]
    # linearity and the weight shift of the new letter
    two = s + s
    assert list(two.terms.values())[0] == ctx21.field.from_int(2)
    cnt = word_row_content(2, list(s.terms)[0])
    assert p_diff(cnt, 1, 2) == p_diff(word_row_content(2, b""), 1, 2) + 1


@pytest.mark.parametrize("key", [b"", (b"", b"")], ids=["word", "pair"])
def test_state_canonical_form(ctx21, key):
    """A state keyed by words or by (word, barred word) pairs drops zero
    terms, and its repr names both words of a pair."""
    f = ctx21.field
    s = State(f, 2, terms={key: f.one})
    assert (s - s).is_empty()
    assert s.scale(f.zero).is_empty()
    assert (s + s - s).terms == s.terms
    assert repr(s).count("|0>") == (2 if isinstance(key, tuple) else 1)


# ---------------------------------------------------------------------------
# relation instances
# ---------------------------------------------------------------------------

def test_r1_instance_at_vacuum_frozen(ctx21):
    """The two-letter class at the vacuum weight: coefficients ([0], -[1], q^eps)."""
    f = ctx21.field
    insts = [i for i in ctx21.relation_instances((1, 1), (1, 1))
             if i.template == fock.TEMPLATE_EXCHANGE]
    # the window a^2_b a^1_a with empty suffix has p_12 = 1
    first = word_from_letters(2, [(2, 2), (1, 1)])
    rows = [i for i in insts if first in i.terms and i.position == 0
            and len(i.terms) == 3]
    assert rows
    row = rows[0]
    assert row.terms[first].is_zero()                       # [p_12 - 1] = [0]
    w2 = word_from_letters(2, [(1, 1), (2, 2)])
    assert row.terms[w2] == -f.one                          # -[1]
    w3 = word_from_letters(2, [(1, 2), (2, 1)])
    assert row.terms[w3] == f.q_power(-1)                   # q^{eps_{12}}


def test_exchange_rows_skip_dead_endings(ctx31):
    """A word ending in a row >= 2 letter yields a row only at its last
    window, and none when the letter before has row >= 2 as well; any other
    word yields one at every window of two distinct letters."""
    n = 3
    for w in class_words(n, (2, 1, 1), (1, 2, 1)):
        got = [inst.position
               for inst in fock.exchange_rows(ctx31.field, n, ctx31.h, [w])]
        if w[-1] < n:
            assert got == [p for p in range(len(w) - 2, -1, -1)
                           if w[p] != w[p + 1]]
        elif w[-2] < n:
            assert got == [len(w) - 2]
        else:
            assert got == []


def test_live_windows_keep_a_window_as_its_mirror_does():
    """A window is live in u x y v exactly when it is live in the mirror
    word u y x v: the premise of the verify-algebra sweep's R2/R3 mirror
    skip (``qzm.cli._instances_all_zero``)."""
    n = 3
    for rc, fc in [((2, 1, 1), (1, 2, 1)), ((1, 1, 2), (2, 1, 1)),
                   ((0, 2, 2), (2, 2, 0))]:
        for w in class_words(n, rc, fc):
            live = set(fock.live_windows(n, w))
            for p in range(len(w) - 1):
                m = w[:p] + bytes((w[p + 1], w[p])) + w[p + 2:]
                assert (p in live) == (p in fock.live_windows(n, m))


def test_every_instance_reduces_to_zero(ctx21, ctx31, gctx2):
    for ctx, rc, fc in [
        (ctx21, (2, 1), (2, 1)), (ctx21, (3, 0), (2, 1)),
        (ctx31, (1, 1, 1), (1, 1, 1)), (ctx31, (2, 1, 0), (1, 1, 1)),
        (gctx2, (2, 1), (1, 2)),
    ]:
        for inst in ctx.relation_instances(rc, fc):
            st = State(ctx.field, ctx.n, terms=inst.terms)
            assert ctx.is_zero_state(st), (rc, fc, inst.template)


def test_instance_generation_is_content_homogeneous(ctx31):
    for inst in ctx31.relation_instances((2, 1, 0), (2, 1, 0)):
        contents = {word_row_content(3, w) for w in inst.terms}
        if inst.template == fock.TEMPLATE_DET:
            assert len(contents) <= 2
        else:
            assert len(contents) == 1


def test_barred_templates_equal_unbarred():
    """The barred relations coincide with the unbarred ones in (row, flavor)
    terms, which is why both factors of a tensor state share block bases."""
    ctx = FockContext(3, 1)
    # realized here as: instances depend only on letter codes, and a barred
    # word, the second factor of a tensor state, uses the same (row, flavor)
    # codes; spot-check that the annihilation agrees on both factors
    pairs = apply_Q(2, 2, tensor_vacuum(ctx)).terms
    assert len(pairs) == 3
    for w, wb in pairs:
        assert w == wb
        assert ctx.is_zero_state(State(ctx.field, 3,
                                             terms={w: ctx.field.one}))


@pytest.mark.parametrize("h", [None] + list(range(3, 13)),
                         ids=lambda h: "generic" if h is None else f"h{h}")
def test_anti_diagonal_r1_windows_are_in_the_diagonal_span(h):
    """The identity behind builds' R1 rows (``qzm.basis.build_block``): for
    rows i != j and flavors a != b, the four words of (i,a), (j,b) carry
    four R1 windows, and the two anti-diagonal rows are Q^-1 M^-1 times the
    two diagonal ones, which have rank 2.  For a diagonal window x y, P is
    its p_ij, e = eps(flavor y, flavor x), Q = q^(e P) and M = [[ [P-1],
    -[P] ], [ [P], -[P+1] ]], of determinant 1.  Both row orders and both
    flavor orders, P in -2h..2h (-12..12 for generic q)."""
    f = make_field(GENERIC) if h is None else make_field(ROOT, h)
    n, top = 2, 12 if h is None else 2 * h

    def row(x, y, cnt):
        return {pair: c for pair, c in fock.exchange_terms(f, n, x, y, cnt)}

    for (xi, yi), (xa, ya) in product(((0, 1), (1, 0)), repeat=2):
        # the window x y, and x2 y2, the third word of its row
        x, y, x2, y2 = xi * n + xa, yi * n + ya, yi * n + xa, xi * n + ya
        if (xi < yi) != (xa < ya):
            x, y, x2, y2 = x2, y2, x, y
        (xi, xa), (yi, ya) = divmod(x, n), divmod(y, n)
        words = [bytes(p) for p in ((x, y), (y, x), (x2, y2), (y2, x2))]
        for P in range(-top, top + 1):
            m = P - (xi - yi)       # cnt[yi] - cnt[xi], so that p_ij = P
            cnt = [0] * n
            cnt[yi if m > 0 else xi] = abs(m)
            assert p_diff(cnt, yi + 1, xi + 1) == P
            diag = [row(x, y, cnt), row(y, x, cnt)]
            anti = [row(x2, y2, cnt), row(y2, x2, cnt)]
            qinv = f.q_power(-epsilon(ya, xa) * P)
            minv = [[-f.q_int(P + 1), f.q_int(P)],
                    [-f.q_int(P), f.q_int(P - 1)]]
            assert minv[0][0] * minv[1][1] - minv[0][1] * minv[1][0] == f.one
            for got, coeffs in zip(anti, minv):
                want = {w: qinv * (coeffs[0] * diag[0].get(w, f.zero)
                                   + coeffs[1] * diag[1].get(w, f.zero))
                        for w in words}
                assert {w: c for w, c in want.items() if not c.is_zero()} \
                    == {w: c for w, c in got.items() if not c.is_zero()}, (x, y, P)
            minors = [diag[0].get(u, f.zero) * diag[1].get(v, f.zero)
                      - diag[0].get(v, f.zero) * diag[1].get(u, f.zero)
                      for u, v in combinations(words, 2)]
            assert any(not c.is_zero() for c in minors), (x, y, P)


def per_window_exchange_rows(field, n, h, words):
    """The sweep's R1/R2/R3 instances with every coefficient made afresh
    for its window: the oracle for ``fock.exchange_rows``, which makes each
    once per call."""
    qpow = field.q_power
    one = field.one
    for w in words:
        N = len(w)
        if N < 2 or w[-1] < n:
            stop = -1
        elif w[-2] < n:
            stop = N - 3
        else:
            continue
        cnt = [0] * n
        for p in range(N - 2, stop, -1):
            x = w[p]
            y = w[p + 1]
            xi, xa = x // n, x % n
            yi, ya = y // n, y % n
            if xi != yi:
                if xa != ya:
                    terms = {w[:p] + pair + w[p + 2:]: c for pair, c in
                             fock.exchange_terms(field, n, x, y, cnt)}
                    yield fock.RelationInstance(fock.TEMPLATE_EXCHANGE, terms, p)
                else:
                    w2 = w[:p] + bytes((y, x)) + w[p + 2:]
                    yield fock.RelationInstance(fock.TEMPLATE_COMMUTE,
                                                {w: one, w2: -one}, p)
            elif xa != ya:
                w2 = w[:p] + bytes((y, x)) + w[p + 2:]
                yield fock.RelationInstance(
                    fock.TEMPLATE_FLAVOR_SWAP,
                    {w: one, w2: -qpow(epsilon(xa, ya))}, p)
            cnt[yi] += 1


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
def test_exchange_rows_match_the_per_window_oracle(generic):
    """Every verify-algebra (3,2) sweep content yields the same instances,
    in the same order, with the same terms in the same order."""
    ctx = FockContext(3, 2, generic=generic)
    f, n, h = ctx.field, ctx.n, ctx.h

    def listed(instances):
        return [(i.template, list(i.terms.items()), i.position)
                for i in instances]

    count = 0
    for rc in _sweep_contents(n, SWEEP_LETTERS):
        for fc in _compositions(sum(rc), n):
            for ws in _level_words(n, chain_levels(rc, fc)):
                got = listed(fock.exchange_rows(f, n, h, ws))
                assert got == listed(per_window_exchange_rows(f, n, h, ws))
                count += len(got)
    assert count == 7926


# ---------------------------------------------------------------------------
# quotient bases
# ---------------------------------------------------------------------------

def test_vacuum_class_dimension_one(ctx21, ctx31):
    for ctx in (ctx21, ctx31):
        fb = quotient_basis(ctx, (0,) * ctx.n)
        assert fb.dimension == 1
        bb = ctx.block_basis((1,) * ctx.n, (1,) * ctx.n)
        assert b"" in bb.basis_words


def test_h_power_word_reduces_to_zero(ctx22):
    w = word_from_letters(2, [(1, 1)] * 4)
    st = State(ctx22.field, 2, terms={w: ctx22.field.one})
    assert ctx22.is_zero_state(st)


def test_annihilation(ctx21):
    for flavor in (1, 2):
        s = State.vacuum(ctx21.field, 2).apply_letter(2, flavor)
        assert ctx21.is_zero_state(s)
    assert not ctx21.is_zero_state(State.vacuum(ctx21.field, 2))


def test_reduce_idempotent_and_graded(ctx22):
    f = ctx22.field
    w1 = word_from_letters(2, [(2, 1), (1, 2)])
    w2 = word_from_letters(2, [(1, 1), (1, 2), (2, 2)])
    s = State(f, 2, terms={w1: f.one, w2: f.q_power(1)})
    red = ctx22.reduce_state(s)
    assert ctx22.reduce_state(red).terms == red.terms
    # reduction moves only down the determinant chain
    for w in red.terms:
        c = word_row_content(2, w)
        assert c in {(1, 1), (0, 0), (2, 1), (1, 0)}


def test_generic_flavor_class_dimensions(gctx2):
    """Single-row classes at generic q: one basis word per flavor split."""
    for m in range(1, 6):
        fb = quotient_basis(gctx2, (m, 0))
        assert fb.dimension == m + 1


def kostka(shape, content):
    """Semistandard tableau count by direct enumeration."""
    n = len(content)
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def rec(filling, pos, used):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        out = 0
        for v in range(n):
            if used[v] >= content[v]:
                continue
            if c > 0 and filling[(r, c - 1)] > v:
                continue
            if r > 0 and filling[(r - 1, c)] >= v:
                continue
            filling[(r, c)] = v
            used[v] += 1
            out += rec(filling, pos + 1, used)
            used[v] -= 1
            del filling[(r, c)]
        return out

    return rec({}, 0, [0] * n)


@pytest.mark.parametrize("rc,fc", [
    ((1, 1, 0), (1, 1, 0)), ((1, 1, 0), (2, 0, 0)),
    ((2, 1, 0), (1, 1, 1)), ((2, 1, 0), (2, 1, 0)),
    ((3, 1, 0), (2, 1, 1)), ((3, 1, 0), (1, 1, 2)),
    ((2, 2, 0), (2, 1, 1)), ((1, 2, 0), (1, 1, 1)),
    ((2, 0, 0), (1, 1, 0)), ((0, 2, 0), (1, 1, 0)),
])
def test_generic_dimensions_match_kostka(gctx3, rc, fc):
    """At generic q the module is the model space: block dimensions are
    Kostka numbers of the dominant shape, zero for non-dominant contents."""
    shape = [c for c in rc if c]
    dominant = all(rc[t] >= rc[t + 1] for t in range(len(rc) - 1))
    expected = kostka(shape, fc) if dominant else 0
    assert gctx3.block_basis(rc, fc).dim == expected


# ---------------------------------------------------------------------------
# independent dense elimination oracle
# ---------------------------------------------------------------------------

def dense_quotient(ctx, rc, fc):
    """Brute-force row reduction with naive pivoting over all words."""
    words = []
    from qzm.basis import chain_levels
    for r, f in chain_levels(rc, fc):
        words.extend(class_words(ctx.n, r, f))
    words.sort(key=word_sort_key)
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for inst in ctx.relation_instances(rc, fc):
        vec = [ctx.field.zero] * len(words)
        for w, c in inst.terms.items():
            vec[index[w]] = vec[index[w]] + c
        rows.append(vec)
    # include the single-word annihilation rows explicitly
    for w in words:
        if word_is_dead(ctx.n, ctx.h, w):
            vec = [ctx.field.zero] * len(words)
            vec[index[w]] = ctx.field.one
            rows.append(vec)
    pivots = {}
    for vec in rows:
        for col in range(len(words)):
            if vec[col].is_zero():
                continue
            if col in pivots:
                prow = pivots[col]
                c = vec[col]
                vec = [a - c * b for a, b in zip(vec, prow)]
            else:
                inv = vec[col].invert()
                pivots[col] = [a * inv for a in vec]
                break
    free = [words[i] for i in range(len(words)) if i not in pivots]
    return set(free)


@pytest.mark.parametrize("rc,fc", [
    ((2, 1), (2, 1)), ((2, 1), (1, 2)), ((3, 1), (2, 2)), ((2, 2), (2, 2)),
])
def test_sparse_matches_dense_oracle(ctx22, rc, fc):
    bb = ctx22.block_basis(rc, fc)
    assert set(bb.basis_words) == dense_quotient(ctx22, rc, fc)


def test_reduction_coordinates_match_dense(ctx22):
    """Reducing random states agrees with dense back-substitution."""
    rng = random.Random(3)
    rc, fc = (2, 1), (2, 1)
    words = class_words(2, rc, fc)
    f = ctx22.field
    for _ in range(5):
        terms = {w: f.from_int(rng.randint(-3, 3)) for w in rng.sample(words, 3)}
        s = State(f, 2, terms=terms)
        red = ctx22.reduce_state(s)
        # the reduced support lies in the quotient basis
        basis = set(ctx22.block_basis(rc, fc).basis_words) \
            | set(ctx22.block_basis((1, 0), (1, 0)).basis_words)
        assert set(red.terms) <= basis
        # reducing the difference of the state and its reduction gives zero
        assert ctx22.is_zero_state(s - red)


def test_budget_enforced():
    tiny = FockContext(3, 2, budget=10)
    from qzm.basis import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        tiny.block_basis((2, 2, 1), (2, 2, 1))
    assert class_size((2, 2, 1), (2, 2, 1)) > 10


def test_more_than_16_flavors_is_a_usage_error():
    """A letter is one byte, so n * n letters need n <= 16."""
    FockContext(16, 1)
    with pytest.raises(UsageError):
        FockContext(17, 1)


def test_reordering_soundness(ctx22):
    """Words linked by one exchange template reduce consistently: the
    template row itself reduces to zero at every position."""
    for rc, fc in [((2, 1), (2, 1)), ((2, 2), (2, 2))]:
        words = class_words(2, rc, fc)
        for inst in fock.exchange_rows(ctx22.field, 2, 4, words):
            st = State(ctx22.field, 2, terms=inst.terms)
            assert ctx22.is_zero_state(st)
