"""Microbenchmarks of the scalar layer: mul, add and invert per field mode.

Operands come from a seeded generator.  Root mode (h = 5, Q(q) mod Phi_10)
mixes q-integer pivots, the values elimination inverts most, with dense
elements carrying a denominator; generic mode uses rational functions of
low degree.  Every timed result is then checked exactly against an
identity, so a fast wrong answer fails the run instead of being timed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from qzm.scalars import GENERIC, ROOT, make_field

OPERANDS = 64        # distinct operand pairs per op
ROUNDS = 9           # timed rounds; the median per-op time is reported
TARGET_NS = 20e6     # aim for about 20 ms per round


def _poly(f, rng, degree, lo=-6, hi=6):
    s = f.zero
    for j in range(degree):
        c = rng.randint(lo, hi)
        if c:
            s = s + f.q_power(j) * f.from_int(c)
    return s


def _root_operand(f, rng):
    if rng.random() < 0.5:
        m = rng.choice([m for m in range(-9, 10) if m % f.h])
        return f.q_int(m) * f.q_power(rng.randrange(2 * f.h))
    while True:
        a = _poly(f, rng, f.degree) * f.from_fraction(
            f"1/{rng.randint(1, 12)}")
        if not a.is_zero():
            return a


def _generic_operand(f, rng):
    while True:
        num = _poly(f, rng, 4, -4, 4)
        den = _poly(f, rng, 3, -4, 4)
        if not num.is_zero() and not den.is_zero():
            return num / den


def _time_op(op, pairs):
    """Median ns per op over ROUNDS rounds of repeated passes over pairs."""
    t0 = perf_counter_ns()
    for a, b in pairs:
        op(a, b)
    per_pass = max(perf_counter_ns() - t0, 1)
    reps = max(1, int(TARGET_NS / per_pass))
    samples = []
    for _ in range(ROUNDS):
        t0 = perf_counter_ns()
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)
        samples.append((perf_counter_ns() - t0) / (reps * len(pairs)))
    return statistics.median(samples)


def _bench_field(f, operand, rng):
    pairs = [(operand(f, rng), operand(f, rng)) for _ in range(OPERANDS)]
    mul_ns = _time_op(lambda a, b: a * b, pairs)
    add_ns = _time_op(lambda a, b: a + b, pairs)
    inv_ns = _time_op(lambda a, b: a.invert(), pairs)
    one = f.one
    ok = True
    for a, b in pairs:
        p, s, ai = a * b, a + b, a.invert()
        ok &= (a * ai == one and (s - b) == a and p == b * a
               and p * b.invert() == a)
    return {"mul_ns": mul_ns, "add_ns": add_ns, "invert_ns": inv_ns}, ok


def run(seed):
    """Return ({metric name: (value, unit)}, all results checked exact)."""
    rng = random.Random(seed)
    out = {}
    ok = True
    for mode, field, operand in ((ROOT, make_field(ROOT, 5), _root_operand),
                                 (GENERIC, make_field(GENERIC),
                                  _generic_operand)):
        times, good = _bench_field(field, operand, rng)
        ok &= good
        for k, v in times.items():
            out[f"scalars.{mode}.{k}"] = (v, "ns")
    return out, ok
