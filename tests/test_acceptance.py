"""Acceptance suite: every criterion is exact (tolerance zero) over the
cyclotomic field.  One pass/fail line is printed per criterion.

Two sub-claims are expected to fail honestly in this constructive
realization and are documented in the project notes: the saturated-hook
w-vector vanishing (criterion 6) and the strict zero-classification of
every violating growth step (criterion 7).  The computation keeps those
vectors nonzero; everything the engine can certify is certified exactly.
"""

import json
import time

import pytest

from qzm import bilinears as bl, cli, diagrams as dg, qalgebra as qa
from qzm.basis import FockContext
from qzm.fock import State, word_is_dead
from qzm.reports import strip_timing
from qzm.scalars import ROOT, make_field

CRITERIA = {}


def record(num, ok, detail=""):
    CRITERIA[num] = (ok, detail)
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def contexts():
    return {
        (2, 1): FockContext(2, 1),
        (2, 2): FockContext(2, 2),
        (2, 3): FockContext(2, 3),
        (3, 1): FockContext(3, 1),
        (3, 2): FockContext(3, 2),
    }


@pytest.fixture(scope="module")
def fprime_suite(contexts):
    """The full growth/annihilation/dimension scan per (n, k), shared by
    criteria 2, 7 and 9."""
    out = {}
    for nk in [(2, 2), (3, 1), (3, 2)]:
        ctx = contexts[nk]
        t0 = time.perf_counter()
        res = qa.fprime_dimension(ctx)
        growth = {}
        for y in dg.enumerate_diagrams(ctx.n, ctx.h):
            for j in range(1, ctx.n + 1):
                growth[(y.parts, j)] = qa.check_growth(ctx, y, j)
        offdiag = {y.parts: qa.check_offdiagonal_annihilation(ctx, y)
                   for y in dg.enumerate_diagrams(ctx.n, ctx.h)}
        out[nk] = {"fprime": res, "growth": growth, "offdiag": offdiag,
                   "seconds": time.perf_counter() - t0}
    return out


def test_criterion_1_field_suite():
    t0 = time.perf_counter()
    ok = True
    for h in range(3, 9):
        f = make_field(ROOT, h)
        ok &= f.q_int(h).is_zero()
        for m in range(1, h):
            ok &= f.q_int(h - m) == f.q_int(m)
        for m in range(-3 * h, 3 * h + 1):
            ok &= f.q_int(-m) == -f.q_int(m)
            ok &= f.q_int(m + 2 * h) == f.q_int(m)
            ok &= f.q_int(m).is_zero() == (m % h == 0)
            ok &= f.q_int(2) * f.q_int(m) == f.q_int(m + 1) + f.q_int(m - 1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert record(1, ok, f"h in 3..8, {elapsed:.2f}s")


def test_criterion_2_module_consistency(contexts, fprime_suite):
    from qzm.cli import _sweep_contents
    t0 = time.perf_counter()
    failures = []
    for nk, ctx in contexts.items():
        n = ctx.n
        for rc in _sweep_contents(n, 3):
            total = sum(rc)
            for fc in _sweep_contents(n, total):
                if sum(fc) != total:
                    continue
                for inst in ctx.relation_instances(rc, fc):
                    st = State(ctx.field, n, terms=inst.terms)
                    if not ctx.is_zero_state(st):
                        failures.append((nk, rc, fc, inst.template))
        bb = ctx.block_basis((1,) * n, (1,) * n)
        if b"" not in bb.basis_words:
            failures.append((nk, "vacuum collapse"))
        if ctx.family_basis((0,) * n).dimension != 1:
            failures.append((nk, "vacuum dimension"))
    # determinant consistency on every chained class family touched by the
    # F-prime suite
    from qzm.fock import determinant_rows
    for nk in [(2, 2), (3, 1), (3, 2)]:
        ctx = contexts[nk]
        n = ctx.n
        for (rc, fc) in sorted(ctx._blocks):
            if min(rc) < 1 or min(fc) < 1:
                continue
            lower = (tuple(c - 1 for c in rc), tuple(c - 1 for c in fc))
            from qzm.fock import class_words
            zs = [z for z in class_words(n, *lower)][:4]
            for inst in determinant_rows(ctx.field, n, ctx.h, zs):
                st = State(ctx.field, n, terms=inst.terms)
                if not ctx.is_zero_state(st):
                    failures.append((nk, rc, fc, "determinant"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    assert record(2, ok, f"{elapsed:.1f}s" + (f" failures={failures[:3]}" if failures else ""))


def test_criterion_3_n2_dimension(contexts):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for k in (1, 2, 3):
        ctx = contexts[(2, k)]
        res = qa.fprime_dimension(ctx)
        good = res.dimension == k + 2 \
            and all(r.nonzero for r in res.records) \
            and [r.diagram.parts for r in res.records] \
            == [()] + [(m,) for m in range(1, k + 2)]
        ok &= good
        detail.append(f"k={k}:dim={res.dimension}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    assert record(3, ok, ", ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_4_nilpotency(contexts):
    t0 = time.perf_counter()
    ok = all(qa.nilpotency(contexts[nk], 1, 1)
             for nk in [(2, 1), (2, 2), (3, 1), (3, 2)])
    gctx = FockContext(2, generic=True)
    s = qa.tensor_vacuum(gctx)
    for _ in range(3):                    # h = 3 at (n, k) = (2, 1)
        s = qa.apply_Q(1, 1, s)
    ok &= not qa.is_zero_tensor(gctx, s)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300
    assert record(4, ok, f"root zero + generic nonzero, {elapsed:.1f}s")


def test_criterion_5_column_vector(contexts):
    t0 = time.perf_counter()
    ok = True
    for nk in [(2, 2), (3, 1), (3, 2)]:
        ctx = contexts[nk]
        s = qa.tensor_vacuum(ctx)
        for _ in range(ctx.h - 1):
            s = qa.apply_Q(1, 1, s)
        ok &= qa.is_zero_tensor(ctx, qa.apply_Q(2, 2, s))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300
    assert record(5, ok, f"{elapsed:.1f}s")


def test_criterion_6_hook_vanishing(contexts):
    t0 = time.perf_counter()
    sub = {}
    for k in (1, 2):
        ctx = contexts[(3, k)]
        v_zero, w_zero = qa.check_hook_vanishing(ctx, 2)
        sub[f"v(k={k})"] = v_zero
        sub[f"w(k={k})"] = w_zero
        v = qa.hook_backbone(ctx, 2)
        v_h = qa.apply_Q(2, 2, qa.apply_Q(1, 1, v))
        w_h = qa.apply_Q(1, 1, qa.apply_Q(2, 2, v))
        ss_v, _ = bl.decompose_QQ(2, 2, 1, 1, v)
        _, aa_w = bl.decompose_QQ(1, 1, 2, 2, v)
        sub[f"audit_v=SS(k={k})"] = qa.is_zero_tensor(ctx, v_h - ss_v)
        sub[f"audit_w=AA(k={k})"] = qa.is_zero_tensor(ctx, w_h - aa_w)
    elapsed = time.perf_counter() - t0
    ok = all(sub.values()) and elapsed < 900
    detail = ", ".join(f"{k}:{'Y' if v else 'N'}" for k, v in sub.items())
    assert record(6, ok, detail + f", {elapsed:.1f}s")


def test_criterion_7_fprime_structure(fprime_suite):
    t0 = sum(d["seconds"] for d in fprime_suite.values())
    sub = {"nonzero": True, "growth": True, "offdiag": True, "outside": 0}
    bad_growth = []
    for nk, data in fprime_suite.items():
        sub["nonzero"] &= all(r.nonzero for r in data["fprime"].records)
        sub["offdiag"] &= all(data["offdiag"].values())
        for (parts, j), out in data["growth"].items():
            if out.prediction == "diagram":
                good = (out.kind == qa.GROWTH_PROPORTIONAL
                        and not out.coefficient.is_zero())
            else:
                good = out.kind == qa.GROWTH_ZERO
            if out.kind == qa.GROWTH_OUTSIDE:
                sub["outside"] += 1
            if not good:
                bad_growth.append((nk, parts, j, out.prediction, out.kind))
                sub["growth"] = False
    ok = sub["nonzero"] and sub["growth"] and sub["offdiag"] \
        and sub["outside"] == 0 and t0 < 1800
    detail = (f"nonzero:{sub['nonzero']}, offdiag:{sub['offdiag']}, "
              f"strict-growth-deviations:{len(bad_growth)}, "
              f"outside:{sub['outside']}, {t0:.1f}s")
    assert record(7, ok, detail), bad_growth


def test_criterion_8_diagram_combinatorics():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 7):
        for h in range(n + 1, 13):
            listed = dg.enumerate_diagrams(n, h)
            ok &= len(listed) == dg.count_diagrams(n, h)
            ok &= all((dg.spread(y) <= h) == (dg.max_hook(y) <= h - 1)
                      for y in listed)
            ok &= all(y.rows <= n - 1 and (not y.parts or y.parts[0] <= h - 1)
                      for y in listed)
    ok &= all(dg.count_diagrams(2, h) == h for h in range(3, 13))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert record(8, ok, f"{elapsed:.2f}s")


def test_criterion_9_bilinear_suite(contexts, fprime_suite):
    import random
    t0 = time.perf_counter()
    ok = True
    # tensor-level identities on every diagram vector of criterion 7
    for nk in [(2, 2), (3, 1), (3, 2)]:
        ctx = contexts[nk]
        n = ctx.n
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for y in dg.enumerate_diagrams(n, ctx.h):
            v = qa.vector_of_diagram(ctx, y)
            for i, j in pairs[:3]:
                for l, m in pairs[:3]:
                    ok &= bl.check_contraction_vanishing(v, i, j, l, m)
            for (i, l, j, m) in [(1, 1, 1, 1), (1, 2, 2, 1), (2, 2, 1, 1)]:
                ok &= bl.check_QQ_split(v, i, l, j, m)
    # weight-dependent identities on 25 seeded chiral states, both modes
    for generic in (False, True):
        for n, k in [(2, 2), (3, 1)]:
            ctx = FockContext(n, generic=True) if generic else contexts[(n, k)]
            rng = random.Random(1)
            states = []
            while len(states) < 25:
                w = bytes(rng.randrange(n * n) for _ in range(3))
                if not word_is_dead(n, ctx.h, w):
                    states.append(State(ctx.field, n, terms={w: ctx.field.one}))
            for s in states:
                for i, j in [(1, 2)] + ([(1, 3)] if n == 3 else []):
                    for a, b in [(1, 2), (2, 1)]:
                        ok &= bl.check_dynamical_AS(ctx, s, i, j, a, b)
                        ok &= bl.check_split_completeness(s, i, j, a, b)
                        ok &= bl.check_symmetry_relabeling(s, i, j, a, b)
                ok &= ctx.is_zero_state(bl.apply_bilinear("A", 1, 1, 1, 2, s))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600
    assert record(9, ok, f"{elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    args = ["fprime", "--n", "2", "--k", "2", "--seed", "1",
            "--format", "json"]
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        cli.run(args + ["--out", str(out)])
        reports.append(json.loads(out.read_text()))
    b1 = json.dumps(strip_timing(reports[0]), sort_keys=True).encode()
    b2 = json.dumps(strip_timing(reports[1]), sort_keys=True).encode()
    ok = b1 == b2
    assert record(10, ok, f"{len(b1)} bytes compared")


def test_zz_acceptance_summary():
    print()
    for num in sorted(CRITERIA):
        ok, detail = CRITERIA[num]
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  [{detail}]")
