"""Batch command-line surface.

Subcommands run verification suites and enumerations, emit text, json or
csv reports, and manage the on-disk quotient-basis cache.  Exit status is
nonzero exactly when a documented-claim check fails; exploratory results are
findings and never fail the run.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from . import __version__, bilinears as bl, diagrams as dg, qalgebra as qa
from .basis import (BudgetExceeded, DEFAULT_BUDGET, FockContext, _compositions,
                    chain_levels)
from .cache import DiskCache
from .fock import (State, class_words, determinant_rows, eps_tag, exchange_terms,
                   live_windows, word_is_dead)
from .reports import (BUDGET, CheckRecord, DERIVED, EXPLORATORY, FAIL, DOCUMENTED,
                      PASS, Report, SKIPPED)
from .scalars import GENERIC, ROOT, make_field
from .weights import p_diff

SWEEP_LETTERS = 4          # class-family sweep depth for verify-algebra
RANDOM_WORD_LETTERS = 3    # length of seeded random words in identity checks


def _echo(cfg):
    d = {"command": cfg.command, "budget": cfg.budget, "samples": cfg.samples,
         "seed": cfg.seed, "generic_q": cfg.generic_q}
    if cfg.n is not None:
        d.update(n=cfg.n, k=cfg.k, h=cfg.h)
    if cfg.command == "check-w":
        d["i"] = cfg.i
    return d


def _context(cfg, generic):
    disk = DiskCache(cfg.cache_dir) if cfg.cache_dir else None
    return FockContext(cfg.n, cfg.k, generic=generic, budget=cfg.budget,
                       disk_cache=disk)


class Checker:
    """Collects check records, timing each one and trapping budget errors.

    A check function returns its verdict (true, false or SKIPPED), or a
    (verdict, extras) pair whose extras may add ``params`` to the record
    and set its ``sizes``, ``certificate`` and ``detail``.
    """

    def __init__(self):
        self.records = []

    def run(self, name, params, provenance, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
            verdict, extras = out if isinstance(out, tuple) else (out, {})
        except BudgetExceeded as e:
            verdict, extras = BUDGET, {"detail": str(e)}
        if not isinstance(verdict, str):
            verdict = PASS if verdict else FAIL
        params = dict(params, **extras.pop("params", {}))
        rec = CheckRecord(name, params, verdict, provenance,
                          seconds=time.perf_counter() - t0, **extras)
        self.records.append(rec)
        return rec


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(cfg, ck):
    """The admissible diagrams and checks on them, or, when the closed-form
    count exceeds ``--budget``, one budget record and nothing listed."""
    n, h, k = cfg.n, cfg.h, cfg.k
    closed = dg.count_diagrams(n, h)
    if closed > cfg.budget:
        ck.run("enumerate", {"n": n, "h": h, "closed_form": closed}, DERIVED,
               lambda: (BUDGET, {"detail": f"{closed} diagrams, over the "
                                           f"budget of {cfg.budget}"}))
        return
    listed = dg.enumerate_diagrams(n, h)
    for y in listed:
        ck.run("diagram", y.to_record(k), DERIVED,
               lambda: (True, {"detail": dg.render(y).replace("\n", " / ")}))
    ck.run("count_matches_closed_form",
           {"n": n, "h": h, "enumerated": len(listed), "closed_form": closed},
           DOCUMENTED if n == 2 else DERIVED,
           lambda: len(listed) == closed)
    ck.run("spread_hook_equivalence", {"n": n, "h": h}, DERIVED,
           lambda: all((dg.spread(y) <= h) == (dg.max_hook(y) <= h - 1)
                       for y in listed))
    ck.run("rectangle_containment", {"n": n, "h": h}, DOCUMENTED,
           lambda: all(y.rows <= n - 1 and (not y.parts or y.parts[0] <= h - 1)
                       for y in listed))


# ---------------------------------------------------------------------------
# verify-field
# ---------------------------------------------------------------------------

def cmd_verify_field(cfg, ck):
    h = cfg.h
    f = make_field(ROOT, h)
    ck.run("q_int_h_vanishes", {"h": h}, DOCUMENTED,
           lambda: f.q_int(h).is_zero())
    ck.run("q_int_reflection", {"h": h, "range": f"1..{h - 1}"}, DOCUMENTED,
           lambda: all(f.q_int(h - m) == f.q_int(m) for m in range(1, h)))
    ck.run("q_int_odd", {"h": h, "range": f"1..{3 * h}"}, DERIVED,
           lambda: all(f.q_int(-m) == -f.q_int(m) for m in range(1, 3 * h + 1)))
    ck.run("q_int_periodicity", {"h": h, "range": f"-{3 * h}..{3 * h}"}, DERIVED,
           lambda: all(f.q_int(m + 2 * h) == f.q_int(m)
                       for m in range(-3 * h, 3 * h + 1)))
    ck.run("q_int_zero_locus", {"h": h, "range": f"|m|<={3 * h}"}, DOCUMENTED,
           lambda: all(f.q_int(m).is_zero() == (m % h == 0)
                       for m in range(-3 * h, 3 * h + 1)))
    ck.run("q_int_recurrence", {"h": h, "range": f"|m|<={3 * h}"}, DERIVED,
           lambda: all(f.q_int(2) * f.q_int(m) == f.q_int(m + 1) + f.q_int(m - 1)
                       for m in range(-3 * h, 3 * h + 1)))
    ck.run("modulus_root", {"h": h}, DERIVED,
           lambda: _eval_modulus(f).is_zero())
    rng = random.Random(cfg.seed)
    ck.run("field_axioms_randomized", {"h": h, "samples": cfg.samples}, DERIVED,
           lambda: _field_axioms(f, rng, cfg.samples))
    ck.run("encode_roundtrip", {"h": h, "samples": cfg.samples}, DERIVED,
           lambda: _encode_roundtrip(f, random.Random(cfg.seed), cfg.samples))


def _eval_modulus(f):
    acc = f.zero
    for j, c in enumerate(f.modulus):
        if c:
            acc = acc + f.q_power(j) * f.from_int(c)
    return acc


def _random_scalar(f, rng):
    s = f.zero
    for j in range(f.degree):
        c = rng.randint(-4, 4)
        if c:
            s = s + f.q_power(j) * f.from_int(c)
    return s


def _field_axioms(f, rng, samples):
    for _ in range(samples):
        a, b, c = (_random_scalar(f, rng) for _ in range(3))
        if (a + b) + c != a + (b + c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        if (a * b) * c != a * (b * c):
            return False
        if not a.is_zero() and (a * a.invert()) != f.one:
            return False
    return True


def _encode_roundtrip(f, rng, samples):
    for _ in range(samples):
        a = _random_scalar(f, rng)
        if f.decode(a.encode()) != a:
            return False
    return True


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------

def _sweep_contents(n, max_letters):
    return [c for t in range(1, max_letters + 1) for c in _compositions(t, n)]


def _random_word(ctx, rng, letters=RANDOM_WORD_LETTERS):
    n = ctx.n
    while True:
        w = bytes(rng.randrange(n * n) for _ in range(letters))
        if not word_is_dead(n, ctx.h, w):
            return w


def _word_state(ctx, w):
    return State(ctx.field, ctx.n, terms={w: ctx.field.one})


# the sweep's sizes: windows checked per template, and R2/R3 windows
# skipped as the mirror of a checked one
SWEEP_COUNTS = ("exchange_checked", "row_commute_checked", "row_commute_mirrored",
                "flavor_swap_checked", "flavor_swap_mirrored",
                "determinant_checked")


def _instances_all_zero(ctx, rc, fc, r1, counts):
    """True when every relation instance of the (rc, fc) block chain that
    ``FockContext.relation_instances`` lists reduces to zero.  The windows
    are tested in place, on the ``live_windows`` of each chain level's
    words, against the memoised reductions of ``ctx.reduce_word``; each
    test adds one to its template's entry of ``counts``.

    R1 (rows and flavors differ): the sum of c * red(u t v) over the three
    (t, c) of ``exchange_terms`` must be zero.  ``r1`` is the sweep's table
    of those terms, keyed by (x, y, p_ij), without the terms of coefficient
    zero, whose words are never reduced.

    R2 (rows differ, one flavor) and R3 (one row, flavors differ), at
    windows x < y only (letter codes): red(w) == red(w') for R2 and
    red(w) == q^eps(a, b) red(w') termwise for R3, where w = u x y v,
    w' = u y x v and a, b are the flavors of x, y.  Reductions are
    canonical tuples, so both tests are exact.  Skipping x > y loses
    nothing.  The instance at the x > y window of w' is
    {w': 1, w: -q^eps(b, a)}, and as eps is antisymmetric that is
    -q^eps(b, a) times the instance {w: 1, w': -q^eps(a, b)} at the x < y
    window of w (R2 has a = b, the unit -1); a unit multiple is zero
    exactly when the instance is.  And w' is a word of the same level, with
    that window live exactly when w's is: ``live_windows`` keeps a window
    by the letters right of it and, for the last window, where w and w'
    end in different letters, by whether x or y has row 1, which does not
    change under the swap.

    R5: each ``determinant_rows`` instance of the lower levels goes through
    ``reduce_terms``.
    """
    n, field = ctx.n, ctx.field
    red = ctx.reduce_word
    # x < y in one row means a < b, so eps(a, b) = -1
    q_eps = field.q_power(-1)
    level_words = [class_words(n, r, f) for r, f in chain_levels(rc, fc)]
    for ws in level_words:
        for w in ws:
            cnt = [0] * n
            for p in live_windows(n, w):
                x, y = w[p], w[p + 1]
                xi, xa = divmod(x, n)
                yi, ya = divmod(y, n)
                if xi != yi and xa != ya:
                    counts["exchange_checked"] += 1
                    key = (x, y, p_diff(cnt, yi + 1, xi + 1))
                    terms = r1.get(key)
                    if terms is None:
                        terms = r1[key] = tuple(
                            (t, c) for t, c in exchange_terms(field, n, x, y, cnt)
                            if not c.is_zero())
                    u, v, acc = w[:p], w[p + 2:], {}
                    for t, c in terms:
                        for b, s in red(u + t + v):
                            cs = c * s
                            old = acc.get(b)
                            acc[b] = cs if old is None else old + cs
                    if not all(c.is_zero() for c in acc.values()):
                        return False
                elif x > y:
                    counts["row_commute_mirrored" if xi != yi
                           else "flavor_swap_mirrored"] += 1
                elif xi != yi:
                    counts["row_commute_checked"] += 1
                    if red(w) != red(w[:p] + bytes((y, x)) + w[p + 2:]):
                        return False
                elif xa != ya:
                    counts["flavor_swap_checked"] += 1
                    r, r2 = red(w), red(w[:p] + bytes((y, x)) + w[p + 2:])
                    if len(r) != len(r2) or any(
                            b != b2 or s != q_eps * s2
                            for (b, s), (b2, s2) in zip(r, r2)):
                        return False
                cnt[yi] += 1
    for ws in level_words[1:]:
        for inst in determinant_rows(field, n, ctx.h, ws):
            counts["determinant_checked"] += 1
            if ctx.reduce_terms(inst.terms):
                return False
    return True


def _sweep_all_zero(ctx, contents):
    r1, counts = {}, dict.fromkeys(SWEEP_COUNTS, 0)
    bad = [(rc, fc) for rc in contents
           for fc in _compositions(sum(rc), ctx.n)
           if not _instances_all_zero(ctx, rc, fc, r1, counts)]
    detail = f"nonzero instances in {bad[:3]}" if bad else None
    return not bad, {"sizes": {"families": len(contents), **counts},
                     "detail": detail}


def _verify_algebra_mode(cfg, ck, generic):
    ctx = _context(cfg, generic)
    mode = GENERIC if generic else ROOT
    rng = random.Random(cfg.seed)
    n = ctx.n

    contents = _sweep_contents(n, SWEEP_LETTERS)
    ck.run("relation_instances_all_zero",
           {"mode": mode, "n": n, "max_letters": SWEEP_LETTERS}, DERIVED,
           lambda: _sweep_all_zero(ctx, contents))
    ck.run("vacuum_family_dimension_one", {"mode": mode, "n": n}, DOCUMENTED,
           lambda: ctx.block_basis((1,) * n, (1,) * n).dim
           >= 1 and b"" in ctx.block_basis((1,) * n, (1,) * n).basis_words)

    # determinant consistency: chain instances with the empty prefix
    ck.run("determinant_consistency",
           {"mode": mode, "n": n, "samples": cfg.samples}, DERIVED,
           lambda: _determinant_consistency(ctx, rng, cfg.samples))

    # bilinear identities on seeded states
    words = [_random_word(ctx, rng) for _ in range(cfg.samples)]
    states = [_word_state(ctx, w) for w in words]
    tensor_states = [qa.tensor_vacuum(ctx)]
    ts = qa.tensor_vacuum(ctx)
    for _ in range(2):
        ts = qa.apply_Q(1, 1, ts)
        tensor_states.append(ts)

    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    flavs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    ck.run("bilinear_split_completeness", {"mode": mode}, DOCUMENTED,
           lambda: all(bl.check_split_completeness(s, i, j, a, b)
                       for s in states[:5] for i, j in pairs[:2] for a, b in flavs))
    ck.run("bilinear_symmetry_relabeling", {"mode": mode}, DOCUMENTED,
           lambda: all(bl.check_symmetry_relabeling(s, i, j, a, b)
                       for s in states[:5] for i, j in pairs[:2] for a, b in flavs))
    ck.run("bilinear_dynamical_exchange", {"mode": mode, "samples": len(states)}, DOCUMENTED,
           lambda: all(bl.check_dynamical_AS(ctx, s, i, j, a, b)
                       for s in states for i, j in pairs[:2]
                       for a, b in flavs if a != b))
    ck.run("bilinear_diagonal_simple", {"mode": mode}, DOCUMENTED,
           lambda: all(bl.check_diagonal_simple(ctx, s, i, j, a, b)
                       for s in states[:8] for i, j in pairs[:1] for a, b in flavs))
    ck.run("contraction_vanishing", {"mode": mode}, DOCUMENTED,
           lambda: all(bl.check_contraction_vanishing(t, i, j, l, m)
                       for t in tensor_states
                       for i, j in pairs[:2] for l, m in pairs[:2]))
    ck.run("QQ_split", {"mode": mode}, DOCUMENTED,
           lambda: all(bl.check_QQ_split(t, i, l, j, m)
                       for t in tensor_states
                       for i, l in [(1, 1), (1, 2)] for j, m in [(1, 1), (2, 1)]))

    if generic:
        ck.run("h_power_survives_generic",
               {"mode": mode, "n": n, "h": cfg.h}, DERIVED,
               lambda: not ctx.is_zero_state(_word_state(
                   ctx, bytes([0]) * cfg.h)))
    else:
        ck.run("h_power_vanishes", {"mode": mode, "n": n, "h": ctx.h}, DOCUMENTED,
               lambda: ctx.is_zero_state(_word_state(ctx, bytes([0]) * ctx.h)))


def _determinant_consistency(ctx, rng, samples):
    n = ctx.n
    for rc in [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1)]:
        for fc in {(0,) * n, (sum(rc),) + (0,) * (n - 1),
                   tuple(sorted(rc, reverse=True))}:
            if sum(fc) != sum(rc):
                continue
            zs = class_words(n, rc, fc)
            rng.shuffle(zs)
            for z in zs[:max(1, samples // 5)]:
                for inst in determinant_rows(ctx.field, n, ctx.h, [z]):
                    if ctx.reduce_terms(inst.terms):
                        return False
    return True


def cmd_verify_algebra(cfg, ck):
    _verify_algebra_mode(cfg, ck, generic=False)
    _verify_algebra_mode(cfg, ck, generic=True)


# ---------------------------------------------------------------------------
# fprime
# ---------------------------------------------------------------------------

def cmd_fprime(cfg, ck):
    """The F' checks on the admissible diagrams, listed once, or, when the
    closed-form count exceeds ``--budget``, one budget record and nothing
    listed."""
    if cfg.generic_q:
        ck.run("fprime", {"n": cfg.n, "k": cfg.k}, DERIVED,
               lambda: (SKIPPED, {"detail": "root-of-unity statement; generic "
                                            "mode has no finite diagram space"}))
        return
    n, k, h = cfg.n, cfg.k, cfg.h
    expected = dg.count_diagrams(n, h)
    prov = DOCUMENTED if n == 2 else DERIVED
    if expected > cfg.budget:
        ck.run("fprime_dimension", {"n": n, "k": k, "h": h, "expected": expected},
               prov, lambda: (BUDGET, {"detail": f"{expected} diagrams, over "
                                                 f"the budget of {cfg.budget}"}))
        return
    ctx = _context(cfg, generic=False)
    res = None

    def dimension():
        nonlocal res
        res = qa.fprime_dimension(ctx)
        return res.dimension == expected, {
            "params": {"h": h, "expected": expected},
            "sizes": {"dimension": res.dimension}}

    if ck.run("fprime_dimension", {"n": n, "k": k}, prov,
              dimension).result == BUDGET:
        return
    diagrams = [r.diagram for r in res.records]
    for r in res.records:
        ck.run("diagram_vector_nonzero",
               {"parts": list(r.diagram.parts), "unitary": r.unitary},
               DOCUMENTED, lambda: r.nonzero)

    for y in diagrams:
        for j in range(1, n + 1):
            ck.run("growth", {"parts": list(y.parts), "j": j}, DOCUMENTED,
                   lambda: _growth(ctx, y, j))

    for y in diagrams:
        ck.run("offdiagonal_annihilation", {"parts": list(y.parts)}, DOCUMENTED,
               lambda: qa.check_offdiagonal_annihilation(ctx, y))

    # dynamical commutation on small diagram vectors
    smalls = [y for y in diagrams if y.boxes <= 2]
    for y in smalls:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                ck.run("dynamical_commutation",
                       {"parts": list(y.parts), "i": i, "j": j}, DOCUMENTED,
                       lambda: _commutation(ctx, y, i, j))

    ck.run("rowcol_commutativity", {"n": n, "k": k}, DOCUMENTED,
           lambda: qa.check_rowcol_commutativity(
               ctx, [qa.diagram_coordinates(ctx, dg.YoungDiagram(n, p))
                     for p in ((), (1,))]))

    for i, j in ((1, 1), (1, 2)):
        ck.run("nilpotency", {"i": i, "j": j, "h": h}, DOCUMENTED,
               lambda: qa.nilpotency(ctx, i, j))


def _growth(ctx, y, j):
    out = qa.check_growth(ctx, y, j)
    # the source asserts violations land on zero or another basis
    # vector; legal growth is proportional with nonzero coefficient
    if out.prediction == "diagram":
        ok = out.kind == qa.GROWTH_PROPORTIONAL
    else:
        ok = out.kind in (qa.GROWTH_ZERO, qa.GROWTH_IN_SPAN)
    params = {"prediction": out.prediction, "outcome": out.kind}
    if out.target is not None:
        params["target"] = list(out.target.parts)
    if out.coefficient is not None:
        params["coefficient"] = out.coefficient.encode()
    cert = None
    if out.kind == qa.GROWTH_OUTSIDE:
        cert = qa.residual_certificate(ctx, out.coordinates)
    return ok, {"params": params, "certificate": cert,
                "sizes": {"max_block_words": ctx.stats["max_block_words"]}}


def _commutation(ctx, y, i, j):
    verdict = qa.check_dynamical_commutation(
        ctx, qa.diagram_coordinates(ctx, y), i, j)
    if verdict == "vacuous":
        return SKIPPED, {"detail": "premise vacuous"}
    return verdict == "pass"


# ---------------------------------------------------------------------------
# check-w
# ---------------------------------------------------------------------------

def cmd_check_w(cfg, ck):
    if cfg.generic_q:
        ck.run("check_w", {"n": cfg.n, "k": cfg.k}, DERIVED,
               lambda: (SKIPPED, {"detail": "root-of-unity statement"}))
        return
    ctx = _context(cfg, generic=False)
    n, k, i = cfg.n, cfg.k, cfg.i
    params = {"n": n, "k": k, "i": i}
    # the source verifies (3, k<=2, i=2); anything else is exploratory
    prov = DOCUMENTED if n == 3 and k <= 2 and i == 2 else EXPLORATORY

    hook = {}       # first -> the reduced coordinates of v_h (1) or w_h (i)

    def vanishes(first, nonzero_detail=None):
        """Zero test whose certificate fingerprints a nonzero residual."""
        hook[first] = qa.hook_coordinates(ctx, i, first)
        cert = qa.residual_certificate(ctx, hook[first])
        return cert is None, {"certificate": cert,
                              "detail": None if cert is None else nonzero_detail}

    checks = [ck.run("hook_v_vanishes", params, prov, lambda: vanishes(1)),
              ck.run("hook_w_vanishes", params, prov,
                     lambda: vanishes(i, "nonzero in the constructive quotient"))]
    if any(rec.result == BUDGET for rec in checks):
        return

    # the free hook vectors, for the literal cancellations of the audit
    v = qa.hook_backbone(ctx, i)
    v_h = qa.apply_Q(i, i, qa.apply_Q(1, 1, v))
    w_h = qa.apply_Q(1, 1, qa.apply_Q(i, i, v))

    # S/A decomposition audit
    ss_v, aa_v = bl.decompose_QQ(i, i, 1, 1, v)
    ss_w, aa_w = bl.decompose_QQ(1, 1, i, i, v)
    ck.run("hook_v_equals_SS_part", params, DOCUMENTED,
           lambda: qa.reduced_coordinates(ctx, ss_v) == hook[1])
    ck.run("hook_w_equals_AA_part", params, DOCUMENTED,
           lambda: qa.reduced_coordinates(ctx, aa_w) == hook[i])
    ck.run("hook_split_sums", params, DOCUMENTED,
           lambda: (v_h - ss_v - aa_v).is_empty()
           and (w_h - ss_w - aa_w).is_empty())
    ck.run("hook_A_annihilates_backbone", params, DOCUMENTED,
           lambda: all(
               ctx.is_zero_state(bl.apply_bilinear("A", i, 1, a, b,
                                                   _word_state(ctx, w)))
               for w, _ in list(v.terms)[:6]
               for a in range(1, n + 1) for b in range(1, n + 1) if a != b))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cmd_cache(cfg, ck):
    cache = DiskCache(cfg.cache_dir)
    if cfg.cache_action == "purge":
        ck.run("cache_purge", {}, DERIVED,
               lambda: (True, {"params": {"removed": cache.purge()}}))
        return
    contexts = {} if cfg.cache_action == "validate" else None
    for name, data in cache.records():
        ck.run("cache_record", {"file": name}, DERIVED,
               lambda: _cache_record(cache, name, data, contexts, cfg.budget))


def _cache_record(cache, name, data, contexts, budget):
    """List one block file, or, given the run's validation ``contexts``,
    validate it and quarantine it if bad."""
    validate = contexts is not None
    if data is None:
        ok, extras = False, {"detail": "unreadable"}
    else:
        ok = not validate or cache.validate(data, contexts, budget)
        extras = {"params": {
            "n": data.get("n"), "field": data.get("field"),
            "row_content": data.get("row_content"),
            "flavor_content": data.get("flavor_content"),
            "eps": data.get("eps"), "relations": data.get("relations")}}
    if validate and not ok:
        cache.quarantine(name)
        extras["detail"] = ("unreadable; quarantined" if data is None
                            else "quarantined")
    return ok, extras


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "enumerate": cmd_enumerate,
    "verify-field": cmd_verify_field,
    "verify-algebra": cmd_verify_algebra,
    "fprime": cmd_fprime,
    "check-w": cmd_check_w,
    "cache": cmd_cache,
}


def _add_common(p, need_nk=True, generic_q=False):
    """The shared flags; ``--generic-q`` only where a command reads it."""
    if need_nk:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
    if generic_q:
        p.add_argument("--generic-q", action="store_true", dest="generic_q")
    else:
        p.set_defaults(generic_q=False)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qzm",
        description="Exact verification engine for WZNW zero-mode algebras")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("enumerate", "verify-field", "verify-algebra"):
        _add_common(sub.add_parser(name))
    _add_common(sub.add_parser("fprime"), generic_q=True)
    p = sub.add_parser("check-w")
    _add_common(p, generic_q=True)
    p.add_argument("--i", type=int, default=2, help="hook row index")
    p = sub.add_parser("cache")
    p.add_argument("cache_action", choices=["list", "validate", "purge"])
    p.set_defaults(n=None, k=None)
    _add_common(p, need_nk=False)
    return ap


def _check_ranges(parser, cfg):
    """Reject out-of-range input as a usage error, exit status 2."""
    least = {"samples": 1, "budget": 1}
    if cfg.n is not None:
        least.update(n=2, k=1)
    for name, low in least.items():
        if getattr(cfg, name) < low:
            parser.error(f"--{name} must be at least {low}")
    if cfg.command == "cache" and not cfg.cache_dir:
        parser.error("the cache command needs --cache-dir")
    # a listing reads an existing cache; compute commands create a missing one
    if cfg.cache_dir and not os.path.isdir(cfg.cache_dir) and (
            cfg.command == "cache" or os.path.exists(cfg.cache_dir)):
        parser.error(f"--cache-dir {cfg.cache_dir}: not a directory")
    if cfg.out and (os.path.isdir(cfg.out)
                    or not os.path.isdir(os.path.dirname(cfg.out) or ".")):
        parser.error(f"--out {cfg.out}: not a file in an existing directory")
    # words are byte strings, one byte per letter, n * n letters
    if cfg.command in ("verify-algebra", "fprime", "check-w") and cfg.n > 16:
        parser.error("--n must be at most 16 for this command")
    # a --generic-q check-w is recorded as skipped, whatever its --i
    if cfg.command == "check-w" and not cfg.generic_q \
            and not 2 <= cfg.i < cfg.n:
        parser.error(f"--i must lie in 2..{cfg.n - 1} for n = {cfg.n}")


def run(argv=None):
    parser = build_parser()
    cfg = parser.parse_args(argv)
    _check_ranges(parser, cfg)
    cfg.h = None if cfg.n is None else cfg.n + cfg.k
    ck = Checker()
    COMMANDS[cfg.command](cfg, ck)
    report = Report(__version__, eps_tag(), _echo(cfg), ck.records)
    if cfg.format == "json":
        payload = report.to_json()
    elif cfg.format == "csv":
        payload = report.to_csv()
    else:
        payload = report.to_text()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 1 if report.documented_claim_failures() else 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
