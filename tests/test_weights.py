import random

import pytest

from qzm.basis import FockContext
from qzm.scalars import ROOT, UsageError, make_field
from qzm.weights import epsilon, p_diff


def add_letter(cnt, i):
    """The row counts after one more letter of row i."""
    return cnt[:i - 1] + (cnt[i - 1] + 1,) + cnt[i:]


def test_vacuum_values():
    # the vacuum has no letters: p_j = -j
    assert p_diff((0, 0), 1, 2) == 1
    assert p_diff((0, 0, 0), 1, 3) == 2
    assert p_diff((0, 0, 0), 2, 2) == 0
    assert p_diff((0, 0, 0), 3, 1) == -2


def test_vacuum_rejects_small_n():
    with pytest.raises(UsageError):
        FockContext(1, 1)


def test_shift_semantics():
    vac = (0, 0, 0)
    # a row-i letter raises p_i by one and leaves the other entries alone
    for i in (1, 2, 3):
        cnt = add_letter(vac, i)
        for j in (1, 2, 3):
            for l in (1, 2, 3):
                assert p_diff(cnt, j, l) == (p_diff(vac, j, l) + (j == i)
                                             - (l == i))
    assert p_diff(add_letter(vac, 1), 1, 2) == 2
    # repeated letters in the first row track the highest-weight label
    cnt = vac
    for _ in range(5):
        cnt = add_letter(cnt, 1)
    assert p_diff(cnt, 1, 2) == 6
    # letters in different rows commute
    assert add_letter(add_letter(vac, 2), 1) == add_letter(add_letter(vac, 1), 2)


def test_eval_bracket():
    f = make_field(ROOT, 4)
    cnt = (0, 0, 0)
    assert f.q_int(p_diff(cnt, 2, 1)) == -f.one          # [-1]
    assert f.q_int(p_diff(cnt, 2, 2)).is_zero()          # [0]
    # h-2 first-row letters bring [p_21 - 1] to [-h] = 0
    h = 4
    for _ in range(h - 2):
        cnt = add_letter(cnt, 1)
    assert p_diff(cnt, 2, 1) == 1 - h
    assert f.q_int(p_diff(cnt, 2, 1) - 1).is_zero()


def test_bracket_invariant_under_global_shift():
    f = make_field(ROOT, 5)
    cnt = (0, 0, 0)
    shifted = tuple(c + 7 for c in cnt)
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            assert (f.q_int(p_diff(cnt, j, l) + 1)
                    == f.q_int(p_diff(shifted, j, l) + 1))


def test_weight_periodicity_at_root():
    # q^{2h p_jl} = 1 holds automatically for integer weights
    rng = random.Random(7)
    for h in (3, 4, 6):
        f = make_field(ROOT, h)
        for _ in range(20):
            d = rng.randint(-3 * h, 3 * h)
            assert f.q_power(2 * h * d) == f.one


def test_epsilon_sign():
    assert epsilon(2, 1) == 1
    assert epsilon(1, 2) == -1
    assert epsilon(3, 3) == 0
