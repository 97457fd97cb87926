import hashlib
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import qzm.cache
import qzm.diagrams
from qzm import cli
from qzm.basis import BlockBasis, FockContext, _compositions, chain_levels
from qzm.cache import DiskCache, _canon_key, _decode_block, _digest
from qzm.fock import State
from qzm.reports import strip_timing


def run_cmd(args, tmp_path, name="out"):
    out = tmp_path / f"{name}.json"
    code = cli.run(args + ["--format", "json", "--out", str(out)])
    with open(out, encoding="utf-8") as fh:
        return code, json.load(fh)


def test_enumerate_cmd(tmp_path):
    code, report = run_cmd(["enumerate", "--n", "3", "--k", "2"], tmp_path)
    assert code == 0
    assert report["schema"] == "qzm-report/1"
    diagrams = [c for c in report["checks"] if c["name"] == "diagram"]
    assert len(diagrams) == 11
    assert report["summary"]["fail"] == 0


def test_enumerate_honours_budget(tmp_path):
    """Over the budget, enumerate lists nothing: one budget record, exit
    status 0.  At (n, k) = (3, 2) the closed form counts 11 diagrams."""
    code, report = run_cmd(["enumerate", "--n", "3", "--k", "2",
                            "--budget", "5"], tmp_path)
    assert code == 0
    [rec] = report["checks"]
    assert rec["result"] == "budget"
    assert rec["params"] == {"n": 3, "h": 5, "closed_form": 11}
    assert rec["detail"] == "11 diagrams, over the budget of 5"
    code, report = run_cmd(["enumerate", "--n", "3", "--k", "2",
                            "--budget", "11"], tmp_path, name="at_budget")
    assert code == 0
    assert [c["name"] for c in report["checks"]].count("diagram") == 11


def test_fprime_honours_budget(tmp_path, monkeypatch):
    """Over the budget, fprime lists no diagram: one budget record, exit
    status 0.  At (n, k) = (8, 40) the closed form counts 75 358 720
    diagrams, over the default budget."""
    def listing(n, h):
        raise AssertionError("fprime listed the diagrams")

    monkeypatch.setattr(qzm.diagrams, "enumerate_diagrams", listing)
    code, report = run_cmd(["fprime", "--n", "8", "--k", "40"], tmp_path)
    assert code == 0
    [rec] = report["checks"]
    assert rec["name"] == "fprime_dimension"
    assert rec["result"] == "budget"
    assert rec["params"] == {"n": 8, "k": 40, "h": 48, "expected": 75358720}
    assert rec["detail"] == "75358720 diagrams, over the budget of 100000"


def test_fprime_lists_the_diagrams_once(tmp_path, monkeypatch):
    """The dimension scan lists the diagrams, and the growth, annihilation
    and commutation checks reuse its list: 7 diagrams at (3, 1)."""
    calls = []

    def listing(n, h):
        calls.append((n, h))
        return real(n, h)

    real = qzm.diagrams.enumerate_diagrams
    monkeypatch.setattr(qzm.diagrams, "enumerate_diagrams", listing)
    code, report = run_cmd(["fprime", "--n", "3", "--k", "1"], tmp_path)
    assert calls == [(3, 4)]
    assert sum(c["name"] == "growth" for c in report["checks"]) == 3 * 7


def test_verify_field_cmd(tmp_path):
    for k in (1, 2, 3, 4, 5, 6):
        code, report = run_cmd(["verify-field", "--n", "2", "--k", str(k)],
                               tmp_path, name=f"f{k}")
        assert code == 0
        assert report["summary"]["fail"] == 0


def test_verify_algebra_cmd(tmp_path):
    code, report = run_cmd(["verify-algebra", "--n", "2", "--k", "1"], tmp_path)
    assert code == 0
    assert report["summary"]["fail"] == 0
    modes = {c["params"].get("mode") for c in report["checks"]}
    assert modes == {"root", "generic"}
    # each of the 14 row contents of 1..4 letters is swept once per mode
    sweeps = [c for c in report["checks"]
              if c["name"] == "relation_instances_all_zero"]
    assert [c["sizes"]["families"] for c in sweeps] == [14, 14]


def test_fprime_cmd_n2(tmp_path):
    code, report = run_cmd(["fprime", "--n", "2", "--k", "1"], tmp_path)
    assert code == 0
    byname = {}
    for c in report["checks"]:
        byname.setdefault(c["name"], []).append(c)
    assert byname["fprime_dimension"][0]["result"] == "pass"
    assert all(c["result"] == "pass" for c in byname["growth"])


def test_fprime_determinism(tmp_path):
    args = ["fprime", "--n", "2", "--k", "2", "--seed", "3"]
    _, r1 = run_cmd(args, tmp_path, name="a")
    _, r2 = run_cmd(args, tmp_path, name="b")
    b1 = json.dumps(strip_timing(r1), sort_keys=True).encode()
    b2 = json.dumps(strip_timing(r2), sort_keys=True).encode()
    assert b1 == b2


def test_check_w_exit_codes(tmp_path):
    # the documented case fails its claim in the constructive quotient
    code, report = run_cmd(["check-w", "--n", "3", "--k", "1", "--i", "2"],
                           tmp_path, name="w31")
    assert code == 1
    names = {c["name"]: c for c in report["checks"]}
    assert names["hook_v_vanishes"]["result"] == "pass"
    assert names["hook_w_vanishes"]["result"] == "fail"
    assert names["hook_w_equals_AA_part"]["result"] == "pass"


def test_csv_and_text_formats(tmp_path, capsys):
    out = tmp_path / "r.csv"
    cli.run(["enumerate", "--n", "2", "--k", "1", "--format", "csv",
             "--out", str(out)])
    header = out.read_text().splitlines()[0]
    assert header.startswith("name,result,provenance")
    code = cli.run(["enumerate", "--n", "2", "--k", "1"])
    captured = capsys.readouterr().out
    assert "count_matches_closed_form" in captured
    assert code == 0


def test_cache_roundtrip_and_validate(tmp_path):
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 1), (2, 1))
    # a fresh context must load the same data from disk
    ctx2 = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb2 = ctx2.block_basis((2, 1), (2, 1))
    # a load reads its coordinates from its sub-blocks, so they load too
    assert ctx2.stats["blocks_loaded"] == 10
    assert bb2.basis_words == bb.basis_words
    assert bb2.rref == bb.rref
    files = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    # the block and its 9 sub-blocks, the empty content's included
    assert len(files) == ctx.stats["blocks_built"] == 10

    code, report = run_cmd(["cache", "list", "--cache-dir", cache_dir],
                           tmp_path, name="list")
    assert code == 0
    assert report["summary"]["total"] >= 1
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    assert code == 0
    assert report["summary"]["fail"] == 0


def test_cache_quarantines_wrong_convention(tmp_path):
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((1, 1), (1, 1))
    # corrupt the convention tag
    path = _block_file(cache_dir, ctx, ((1, 1), (1, 1)))
    data = json.loads(open(path, encoding="utf-8").read())
    data["eps"] = "qeps+9"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    # validation quarantines the mismatched record
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="q")
    recs = [c for c in report["checks"] if c["name"] == "cache_record"]
    assert any(r["result"] == "fail" for r in recs)
    assert any(f.endswith(".quarantined") for f in os.listdir(cache_dir))
    # a fresh context ignores the quarantined data and recomputes cleanly
    ctx2 = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx2.block_basis((1, 1), (1, 1))
    # its 4 one-letter sub-blocks and the empty one load
    assert ctx2.stats["blocks_loaded"] == 5
    assert ctx2.stats["blocks_built"] == 1


def test_cache_validate_checks_every_block(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_cmd(["fprime", "--n", "2", "--k", "2", "--cache-dir", cache_dir],
            tmp_path, name="fill")
    # change one tail scalar in one block file
    name = next(f for f, d in DiskCache(cache_dir).records()
                if d["row_content"] == [2, 1] and d["flavor_content"] == [1, 2])
    path = os.path.join(cache_dir, name)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _, tail = data["block"]["rows"][0]
    tail[0][1][0] = str(Fraction(tail[0][1][0]) + 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    recs = {c["params"]["file"]: c for c in report["checks"]}
    assert len(recs) > 1
    assert recs[name]["result"] == "fail"
    assert recs[name]["detail"] == "quarantined"
    assert os.path.exists(path + ".quarantined")
    assert all(r["result"] == "pass" for f, r in recs.items() if f != name)


def _fprime_n3k1(tmp_path, name, *extra):
    return run_cmd(["fprime", "--n", "3", "--k", "1", *extra], tmp_path,
                   name=name)[1]


def test_warm_cache_gives_the_cold_report(tmp_path):
    """Loaded blocks count in sizes, as built ones do."""
    cache_dir = str(tmp_path / "cache")
    cold = _fprime_n3k1(tmp_path, "cold", "--cache-dir", cache_dir)
    warm = _fprime_n3k1(tmp_path, "warm", "--cache-dir", cache_dir)
    assert strip_timing(warm) == strip_timing(cold)
    assert strip_timing(cold) == strip_timing(_fprime_n3k1(tmp_path, "none"))


def test_budget_applies_to_cached_blocks(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _fprime_n3k1(tmp_path, "fill", "--cache-dir", cache_dir)
    cold = _fprime_n3k1(tmp_path, "cold", "--budget", "50")
    warm = _fprime_n3k1(tmp_path, "warm", "--budget", "50",
                        "--cache-dir", cache_dir)
    assert "budget" in [c["result"] for c in cold["checks"]]
    assert strip_timing(warm) == strip_timing(cold)


def test_cache_validate_lists_no_words(tmp_path, monkeypatch):
    """The certificate reduces the rows that build a block, not the
    per-word relation instances."""
    cache_dir = str(tmp_path / "cache")
    run_cmd(["fprime", "--n", "2", "--k", "7", "--cache-dir", cache_dir],
            tmp_path, name="fill")

    def per_word(*args, **kwargs):
        raise AssertionError("per-word relation path")

    for name in ("exchange_rows", "determinant_rows", "class_words"):
        monkeypatch.setattr(qzm.basis, name, per_word)
    monkeypatch.setattr(FockContext, "relation_instances", per_word)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    assert code == 0
    assert report["checks"]
    assert all(c["result"] == "pass" for c in report["checks"])


def _block_file(cache_dir, ctx, key):
    """The path of one block's file; a build stores its sub-blocks too."""
    return DiskCache(cache_dir)._path(_canon_key(ctx.n, ctx.field.tag(), key))


def _record_of(report, path):
    """The check record of the file at ``path``; every other one passed."""
    recs = {c["params"]["file"]: c for c in report["checks"]}
    rec = recs.pop(os.path.basename(path))
    assert all(r["result"] == "pass" for r in recs.values())
    return rec


@pytest.mark.parametrize("damage", ["record_without_basis", "truncated"])
def test_malformed_block_file_is_rebuilt(tmp_path, damage):
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 1), (2, 1))
    path = _block_file(cache_dir, ctx, bb.key)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if damage == "truncated":
        text = text[:len(text) // 2]
    else:
        data = json.loads(text)
        del data["block"]["basis"]
        text = json.dumps(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    ctx2 = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb2 = ctx2.block_basis((2, 1), (2, 1))
    # its 9 sub-blocks load
    assert ctx2.stats["blocks_loaded"] == 9
    assert ctx2.stats["blocks_built"] == 1
    assert bb2.basis_words == bb.basis_words
    # the rebuild rewrote the file, so the next context loads it, and the
    # sub-blocks that give its coordinates
    ctx3 = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    assert ctx3.block_basis((2, 1), (2, 1)).basis_words == bb.basis_words
    assert ctx3.stats["blocks_loaded"] == 10
    assert ctx3.stats["blocks_built"] == 0


def test_altered_scalar_block_is_rebuilt(tmp_path):
    """A record whose scalar was altered but still decodes fails its
    checksum, so the load is a miss and the block is rebuilt."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 1), (1, 2))
    path = _block_file(cache_dir, ctx, bb.key)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _, tail = next(row for row in data["block"]["rows"] if row[1])
    tail[0][1][0] = str(Fraction(tail[0][1][0]) + 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    ctx2 = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb2 = ctx2.block_basis((2, 1), (1, 2))
    # its 9 sub-blocks load
    assert ctx2.stats["blocks_loaded"] == 9
    assert ctx2.stats["blocks_built"] == 1
    assert bb2.rref == bb.rref


def test_cache_validate_certifies_a_checksummed_record(tmp_path):
    """A tail scalar altered with its checksum rewritten passes the header
    check, so only the certificate can catch it."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((2, 1), (1, 2))
    path = _block_file(cache_dir, ctx, ((2, 1), (1, 2)))
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _, tail = next(row for row in data["block"]["rows"] if row[1])
    tail[0][1][0] = str(Fraction(tail[0][1][0]) + 1)
    data["sha256"] = _digest(data["block"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    rec = _record_of(report, path)
    assert rec["result"] == "fail"
    assert rec["detail"] == "quarantined"
    assert os.path.exists(path + ".quarantined")


def test_cache_validate_rebuilds_a_record_with_an_extra_pivot(tmp_path):
    """A checksummed record that drops the one free column of ((2,1),(1,2))
    from its basis and from every tail, so that it reads as an implicit
    pivot and so does every pivot whose tail named only it, passes the
    certificate, which checks only that the relation rows lie in the
    record's span; validation compares it with a fresh build and
    quarantines it."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 1), (1, 2))
    path = _block_file(cache_dir, ctx, bb.key)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    record = data["block"]
    [free] = record["basis"]
    assert record["dim"] == 1
    rows = [[lead, [t for t in tail if t[0] != free]]
            for lead, tail in record["rows"]]
    record.update(basis=[], dim=0, rows=[row for row in rows if row[1]])
    assert ctx.certify(_decode_block(ctx, bb.key, record))
    data["sha256"] = _digest(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    rec = _record_of(report, path)
    assert rec["result"] == "fail"
    assert rec["detail"] == "quarantined"
    assert os.path.exists(path + ".quarantined")


def test_stored_record_hashes_to_its_header(tmp_path):
    """The file's record hashes to the sha256 in its header, and that
    digest of ((2,1),(1,2)) at (n, k) = (2, 2) stays what it was.  Pinned
    anew for schema qzm-basis/6, whose record keys the block's rows over A
    by coordinate words."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((2, 1), (1, 2))
    with open(_block_file(cache_dir, ctx, ((2, 1), (1, 2))),
              encoding="utf-8") as fh:
        data = json.load(fh)
    blob = json.dumps(data["block"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == data["sha256"] == \
        "bdd56cc26d669972eb7f518b2afa7024459d16dba59e0d943e6379730e43e7a1"


def test_fresh_context_builds_no_sub_block(tmp_path):
    """One cold build stores the block and every sub-block it built, so a
    fresh context on the same cache builds none of them."""
    cache_dir = str(tmp_path / "cache")
    FockContext(2, 2, disk_cache=DiskCache(cache_dir)).block_basis((2, 1),
                                                                   (2, 1))
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    subs = [(r, f) for r in product(range(3), range(2))
            for f in product(range(3), range(2)) if sum(r) == sum(f)]
    for key in subs:
        ctx.block_basis(*key)
    assert len(subs) == ctx.stats["blocks_loaded"] == 10
    assert ctx.stats["blocks_built"] == 0


def test_non_rep_column_is_a_miss_and_quarantined(tmp_path):
    """A checksummed record whose basis word a11 a12 is replaced by a12 a11,
    another word of its class, reads every word of that class as dead.  The
    certificate rejects it, and the load rejects such a column, and one of
    another content, so the block is rebuilt and validation quarantines the
    file."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 0), (1, 1))
    assert bb.basis_words == [bytes((0, 1))]
    # the coordinate a12 a11 read as free, and the rep a11 a12 as zero
    assert not ctx.certify(BlockBasis(bb.key, bb.field, bb.subs,
                                      {bytes((0, 1)): ()}, [bytes((1, 0))],
                                      bb.total_words, bb.live_words))
    path = _block_file(cache_dir, ctx, bb.key)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["block"]["basis"] == [[[1, 1], [1, 2]]]
    for other in ([[1, 2], [1, 1]], [[1, 1], [1, 1]]):
        data["block"]["basis"] = [other]
        with pytest.raises(ValueError):
            _decode_block(ctx, bb.key, data["block"])
    data["block"]["basis"] = [[[1, 2], [1, 1]]]
    data["sha256"] = _digest(data["block"])
    text = json.dumps(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    rec = _record_of(report, path)
    assert rec["result"] == "fail"
    assert rec["detail"] == "quarantined"
    assert os.path.exists(path + ".quarantined")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    ctx2 = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    assert ctx2.block_basis((2, 0), (1, 1)).basis_words == bb.basis_words
    # its 2 one-letter sub-blocks and the empty one load
    assert ctx2.stats["blocks_loaded"] == 3
    assert ctx2.stats["blocks_built"] == 1


@pytest.mark.parametrize("damage", ["tail_names_a_pivot",
                                    "lead_is_a_basis_word", "lead_repeated",
                                    "basis_word_repeated", "empty_tail",
                                    "word_is_no_coordinate",
                                    "total_words_not_a_number",
                                    "live_words_negative", "dim_wrong"])
def test_unreduced_record_is_a_miss_and_quarantined(tmp_path, damage):
    """A checksummed record that is not a reduced echelon form over A: a
    tail names another pivot, not a basis word (a reduction through it
    would stop at that pivot), or a lead is a basis word too, or a lead or
    a basis word is listed twice, or a row has the empty tail, which a
    record leaves implicit, or a tail names a word that is no coordinate;
    or a record whose stated sizes are not those the key and the basis
    give.  The load rejects it, so the block is rebuilt, and validation
    quarantines the file."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 1), (1, 2))
    path = _block_file(cache_dir, ctx, bb.key)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    record = data["block"]
    rows = record["rows"]
    lead, tail = next(row for row in rows if row[1])
    if damage == "tail_names_a_pivot":
        tail[0][0] = next(other for other, _ in rows if other != lead)
    elif damage == "lead_is_a_basis_word":
        rows.append([record["basis"][0], tail])
    elif damage == "lead_repeated":
        rows.append(rows[0])
    elif damage == "empty_tail":
        tail.clear()
    elif damage == "word_is_no_coordinate":
        tail[0][0] = [[1, 1]]
    elif damage == "total_words_not_a_number":
        record["total_words"] = "lots"
    elif damage == "live_words_negative":
        record["live_words"] = -7
    elif damage == "dim_wrong":
        record["dim"] = 99
    else:
        record["basis"].append(record["basis"][0])
    data["sha256"] = _digest(record)
    text = json.dumps(data)
    with pytest.raises(ValueError):
        _decode_block(ctx, bb.key, record)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    ctx2 = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    assert ctx2.block_basis((2, 1), (1, 2)).rref == bb.rref
    # its 9 sub-blocks load
    assert ctx2.stats["blocks_loaded"] == 9
    assert ctx2.stats["blocks_built"] == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    rec = _record_of(report, path)
    assert rec["result"] == "fail"
    assert rec["detail"] == "quarantined"
    assert os.path.exists(path + ".quarantined")


def test_record_out_of_order_loads_in_coordinate_order(tmp_path):
    """A checksummed record that lists its basis words, its rows and the
    terms of a two-term tail in reverse order loads without a rebuild, and
    its reductions, compared as tuples, equal a fresh build's: the load
    puts them in coordinate order."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(3, 1, disk_cache=DiskCache(cache_dir))
    bb = ctx.block_basis((2, 1, 0), (1, 1, 1))
    path = _block_file(cache_dir, ctx, bb.key)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    record = data["block"]
    tail = next(tail for _, tail in record["rows"] if len(tail) == 2)
    for listed in (tail, record["rows"], record["basis"]):
        listed.reverse()
    data["sha256"] = _digest(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    ctx2 = FockContext(3, 1, disk_cache=DiskCache(cache_dir))
    bb2 = ctx2.block_basis((2, 1, 0), (1, 1, 1))
    assert ctx2.stats["blocks_built"] == 0
    assert bb2.basis_words == bb.basis_words
    assert list(bb2.rref.items()) == list(bb.rref.items())


def _assert_old_file_ignored_and_quarantined(tmp_path, old_layout):
    """The block file turned into an older layout or another relation set,
    written at the block's own file name and at another name, is never loaded, and validation
    quarantines it while the rebuilt file passes."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((1, 1), (1, 1))
    path = _block_file(cache_dir, ctx, ((1, 1), (1, 1)))
    with open(path, encoding="utf-8") as fh:
        old = old_layout(json.load(fh))
    for name in (os.path.basename(path), "0123456789abcdef.json"):
        with open(os.path.join(cache_dir, name), "w", encoding="utf-8") as fh:
            json.dump(old, fh)
    ctx2 = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx2.block_basis((1, 1), (1, 1))
    # its 4 one-letter sub-blocks and the empty one load
    assert ctx2.stats["blocks_loaded"] == 5
    assert ctx2.stats["blocks_built"] == 1
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    recs = {c["params"]["file"]: c["result"] for c in report["checks"]}
    # the block, its 5 sub-blocks and the old file
    assert len(recs) == 7
    assert recs.pop("0123456789abcdef.json") == "fail"
    assert recs[os.path.basename(path)] == "pass"
    assert set(recs.values()) == {"pass"}
    assert os.path.exists(os.path.join(cache_dir,
                                       "0123456789abcdef.json.quarantined"))


def test_old_family_file_ignored_and_quarantined(tmp_path):
    def family(data):
        # the same block in the family layout of schema qzm-basis/1
        old = {k: data[k] for k in ("n", "field", "chirality", "row_content",
                                    "eps")}
        old.update(schema="qzm-basis/1", blocks={"1,1": data["block"]})
        return old
    _assert_old_file_ignored_and_quarantined(tmp_path, family)


def test_word_coordinate_file_ignored_and_quarantined(tmp_path):
    def word_coordinates(data):
        # schema qzm-basis/2: one block per file, no checksum, no class map
        old = {k: v for k, v in data.items() if k != "sha256"}
        old["schema"] = "qzm-basis/2"
        old["block"] = {k: v for k, v in data["block"].items()
                        if k not in ("words", "live_words")}
        return old
    _assert_old_file_ignored_and_quarantined(tmp_path, word_coordinates)


def test_class_map_file_ignored_and_quarantined(tmp_path):
    def class_map(data):
        # schema qzm-basis/3: the same record with its per-word class map,
        # which is empty for this block (each class is a single word)
        old = dict(data, schema="qzm-basis/3")
        old["block"] = dict(data["block"], words=[])
        old["sha256"] = _digest(old["block"])
        return old
    _assert_old_file_ignored_and_quarantined(tmp_path, class_map)


def test_rep_keyed_file_ignored_and_quarantined(tmp_path):
    def rep_keyed(data):
        # schema qzm-basis/5: nonempty tails keyed by live class reps; this
        # block's rows over A name the same words, so only the schema differs
        return dict(data, schema="qzm-basis/5")
    _assert_old_file_ignored_and_quarantined(tmp_path, rep_keyed)


def test_all_pivot_file_ignored_and_quarantined(tmp_path):
    def all_pivots(data):
        # schema qzm-basis/4: every pivot stored, those with the empty tail
        # included; this block has none, so only the schema differs
        return dict(data, schema="qzm-basis/4")
    _assert_old_file_ignored_and_quarantined(tmp_path, all_pivots)


def test_other_relation_set_file_ignored_and_quarantined(tmp_path):
    def other_relations(data):
        # the same record, written under a relation set with one more family
        return dict(data, relations="exchange,row_commute,flavor_swap,"
                                    "determinant,candidate/2")
    _assert_old_file_ignored_and_quarantined(tmp_path, other_relations)


def test_relation_set_change_misses_and_quarantines(tmp_path, monkeypatch):
    """Files stored before the relation set changed are never loaded after
    it, and validation quarantines them."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((1, 1), (1, 1))
    old = os.path.basename(_block_file(cache_dir, ctx, ((1, 1), (1, 1))))
    # the block and its 5 sub-blocks
    olds = set(os.listdir(cache_dir))
    assert len(olds) == 6
    monkeypatch.setattr(qzm.cache, "RELATIONS", qzm.cache.RELATIONS + "+1")
    ctx = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((1, 1), (1, 1))
    assert ctx.stats["blocks_loaded"] == 0
    assert ctx.stats["blocks_built"] == 6
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    recs = {c["params"]["file"]: c for c in report["checks"]}
    assert len(recs) == 12
    assert {f: r["result"] for f, r in recs.items()} == {
        f: "fail" if f in olds else "pass" for f in recs}
    assert recs[old]["params"]["relations"] == \
        "exchange,row_commute,flavor_swap,determinant/1"
    assert os.path.exists(os.path.join(cache_dir, old + ".quarantined"))


def _store_blocks(cache_dir, flavor_contents):
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    for fc in flavor_contents:
        ctx.block_basis((2, 1), fc)


def test_two_processes_share_a_cache_dir(tmp_path):
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    halves = ([(0, 3), (2, 1)], [(1, 2), (3, 0)])
    mp = multiprocessing.get_context("spawn")
    procs = [mp.Process(target=_store_blocks, args=(cache_dir, half))
             for half in halves]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert [p.exitcode for p in procs] == [0, 0]
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    ctx.family_basis((2, 1))
    assert ctx.stats["blocks_built"] == 0
    # the family's 4 blocks and the 11 sub-blocks that give their
    # coordinates
    assert ctx.stats["blocks_loaded"] == 15


def test_cache_validate_quarantines_non_object_record(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "bad.json").write_text("[1, 2]")
    code, report = run_cmd(["cache", "validate", "--cache-dir", str(cache_dir)],
                           tmp_path, name="val")
    [rec] = report["checks"]
    assert rec["result"] == "fail"
    assert rec["detail"] == "unreadable; quarantined"
    assert (cache_dir / "bad.json.quarantined").exists()


@pytest.mark.parametrize("header,value", [("field", 5), ("field", None),
                                          ("n", "2"), ("n", 2.0)])
def test_cache_validate_quarantines_mistyped_header(tmp_path, header, value):
    """A record whose header ``n`` is no integer or whose ``field`` is no
    string reads as invalid and is quarantined; the others still pass."""
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 2, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((1, 1), (1, 1))
    path = _block_file(cache_dir, ctx, ((1, 1), (1, 1)))
    data = json.loads(open(path, encoding="utf-8").read())
    data[header] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, report = run_cmd(["cache", "validate", "--cache-dir", cache_dir],
                           tmp_path, name="val")
    assert code == 0
    rec = _record_of(report, path)
    assert rec["result"] == "fail"
    assert rec["detail"] == "quarantined"
    assert os.path.exists(path + ".quarantined")


def test_records_parse_one_file_at_a_time(tmp_path, monkeypatch):
    """``cache list`` and ``cache validate`` hold one parsed record at a
    time: ``records()`` reads a file only when the iteration reaches it."""
    cache_dir = str(tmp_path / "cache")
    FockContext(2, 2, disk_cache=DiskCache(cache_dir)).block_basis((2, 1),
                                                                   (2, 1))
    reads = []
    real = qzm.cache._read_json
    monkeypatch.setattr(qzm.cache, "_read_json",
                        lambda path: reads.append(path) or real(path))
    records = DiskCache(cache_dir).records()
    assert not reads
    for i, (name, data) in enumerate(records, 1):
        assert len(reads) == i and reads[-1].endswith(name)
        assert data["sha256"]
    assert len(reads) == 10


def _tree_digest(directory):
    """(files, sha256) over the sorted file names and their bytes."""
    h = hashlib.sha256()
    names = sorted(os.listdir(directory))
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return len(names), h.hexdigest()


def test_cold_fprime_n3k1_cache_is_pinned(tmp_path):
    """A cold ``fprime --n 3 --k 1`` cache holds the same files with the
    same bytes, whatever the build does inside: the reduced echelon form is
    unique, and the records are canonical JSON.  Pinned anew for schema
    qzm-basis/6, whose records key the rows over A by coordinate words; the
    blocks' reductions, pinned by PINNED_RECORDS in test_basis, did not
    change."""
    cache_dir = str(tmp_path / "cache")
    _fprime_n3k1(tmp_path, "cold", "--cache-dir", cache_dir)
    assert _tree_digest(cache_dir) == (
        236, "3738750837a182cfe957f55f1caa512534cd4fee6bc62519d66dcafd18c82717")


def test_zero_test_sees_a_corrupted_block():
    """The relation sweep and ``is_zero_state`` read the blocks' echelon
    forms, so a block made anew from its echelon form with one altered
    tail scalar fails the sweep, and the pivot minus its true tail, zero
    before, reads nonzero."""
    ctx = FockContext(2, 2)
    contents = cli._sweep_contents(2, 4)
    assert cli._sweep_all_zero(ctx, contents)[0]
    bb = ctx.block_basis((2, 1), (1, 2))
    lead, red = next((w, r) for w, r in bb.rref.items() if r)
    state = State(ctx.field, 2, terms=dict(
        [(lead, ctx.field.one)] + [(t, -s) for t, s in red]))
    assert ctx.is_zero_state(state)
    _alter_tail(ctx, bb, lead)
    assert not cli._sweep_all_zero(ctx, contents)[0]
    assert not ctx.is_zero_state(state)
    assert not ctx.is_zero_state(State.vacuum(ctx.field, 2))


def _alter_tail(ctx, bb, lead):
    """Put in the place of block ``bb`` one made anew from its echelon form
    with one added to the first scalar of pivot ``lead``'s reduction, and
    forget the reductions memoised before the change."""
    (t, s), *rest = bb.rref[lead]
    ctx._blocks[bb.key] = BlockBasis(
        bb.key, bb.field, bb.subs,
        {**bb.rref, lead: ((t, s + ctx.field.one), *rest)},
        bb.basis_words, bb.total_words, bb.live_words)
    ctx._wred.clear()


def _sweep_verdicts(ctx, key=None):
    """Per sweep content whose chain reaches the block ``key`` (every one
    when ``key`` is None), the verdict of testing its windows in place and
    that of reducing every ``relation_instances`` instance."""
    r1, counts = {}, dict.fromkeys(cli.SWEEP_COUNTS, 0)
    in_place, oracle = [], []
    for rc in cli._sweep_contents(ctx.n, cli.SWEEP_LETTERS):
        for fc in _compositions(sum(rc), ctx.n):
            if key is None or key in chain_levels(rc, fc):
                in_place.append(cli._instances_all_zero(ctx, rc, fc, r1, counts))
                oracle.append(not any(ctx.reduce_terms(i.terms)
                                      for i in ctx.relation_instances(rc, fc)))
    return in_place, oracle


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 2)])
def test_sweep_verdicts_match_the_instance_oracle(n, k, generic):
    """Each content's verdict equals the oracle's, on true reductions and
    after one tail of any one block is altered, so neither the R2/R3
    mirror skip nor the shared R1 table hides a failure, and every such
    alteration fails the sweep.  Only the contents whose chain reaches the
    altered block can change, and the others are not swept again."""
    ctx = FockContext(n, k, generic=generic)
    in_place, oracle = _sweep_verdicts(ctx)
    assert in_place == oracle and all(in_place)
    altered = [bb for _, bb in sorted(ctx._blocks.items())
               if any(bb.rref.values())]
    assert altered
    for bb in altered:
        _alter_tail(ctx, bb, next(w for w, r in bb.rref.items() if r))
        in_place, oracle = _sweep_verdicts(ctx, bb.key)
        assert in_place == oracle and not all(in_place), bb.key
        ctx._blocks[bb.key] = bb
        ctx._wred.clear()


@pytest.mark.parametrize("generic", [False, True], ids=["root", "generic"])
def test_sweep_reduces_every_instance_word(generic, monkeypatch):
    """The (3,2) sweep reduces through ``ctx.reduce_word`` exactly the
    words that its instances hold with a nonzero coefficient, the words
    that reducing every instance reduces.  It checks every R1 window, one
    window of each R2 and R3 mirror pair and every R5 instance."""
    ctx = FockContext(3, 2, generic=generic)
    contents = cli._sweep_contents(3, cli.SWEEP_LETTERS)
    words = {w for rc in contents for fc in _compositions(sum(rc), 3)
             for inst in ctx.relation_instances(rc, fc)
             for w, c in inst.terms.items() if not c.is_zero()}
    reduced, real = set(), ctx.reduce_word
    monkeypatch.setattr(ctx, "reduce_word",
                        lambda w: reduced.add(w) or real(w))
    ok, extras = cli._sweep_all_zero(ctx, contents)
    assert ok and reduced == words
    assert extras["sizes"] == {
        "families": 34, "exchange_checked": 4236,
        "row_commute_checked": 1059, "row_commute_mirrored": 1059,
        "flavor_swap_checked": 786, "flavor_swap_mirrored": 786,
        "determinant_checked": 13}


def test_cache_purge(tmp_path):
    cache_dir = str(tmp_path / "cache")
    ctx = FockContext(2, 1, disk_cache=DiskCache(cache_dir))
    ctx.block_basis((1, 0), (1, 0))
    code, report = run_cmd(["cache", "purge", "--cache-dir", cache_dir],
                           tmp_path, name="p")
    assert code == 0
    assert not [f for f in os.listdir(cache_dir) if f.endswith(".json")]


@pytest.mark.parametrize("argv", [
    ["fprime", "--n", "1", "--k", "1"],
    ["fprime", "--n", "2", "--k", "0"],
    ["check-w", "--n", "2", "--k", "1"],
    ["check-w", "--n", "3", "--k", "1", "--i", "5"],
    ["verify-field", "--n", "2", "--k", "3", "--samples", "0"],
    ["verify-algebra", "--n", "2", "--k", "1", "--samples", "-3"],
    ["fprime", "--n", "17", "--k", "1"],
    ["check-w", "--n", "17", "--k", "1", "--i", "2"],
    ["verify-algebra", "--n", "17", "--k", "1"],
    ["fprime", "--n", "2", "--k", "1", "--budget", "-3"],
    ["enumerate", "--n", "2", "--k", "1", "--out", "{tmp}/missing/r.json"],
    ["enumerate", "--n", "2", "--k", "1", "--out", "{tmp}"],
    ["cache", "list"],
    ["cache", "list", "--cache-dir", "{tmp}/nodir/sub"],
    ["cache", "validate", "--cache-dir", "{tmp}/nodir/sub"],
    ["cache", "purge", "--cache-dir", "{tmp}/nodir/sub"],
], ids=["n1", "k0", "check_w_n2", "check_w_i5", "samples0", "samples_neg",
        "fprime_n17", "check_w_n17", "verify_algebra_n17", "budget_neg",
        "out_dir_missing", "out_is_dir", "cache_dir_missing",
        "cache_dir_absent_list", "cache_dir_absent_validate",
        "cache_dir_absent_purge"])
def test_out_of_range_input_is_a_usage_error(argv, tmp_path, capsys):
    """Exit status 2 with a usage message, before any work runs; 1 is kept
    for a failed documented claim.  A cache listing creates no directory."""
    with pytest.raises(SystemExit) as exc:
        cli.run([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "nodir")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--k", "1"],
    ["verify-field", "--n", "3", "--k", "1"],
    ["verify-algebra", "--n", "3", "--k", "1"],
    ["fprime", "--n", "3", "--k", "1"],
    ["check-w", "--n", "3", "--k", "1"],
    ["cache", "list"],
    ["cache", "validate"],
    ["cache", "purge"],
], ids=lambda argv: "_".join(argv[:2]))
def test_cache_dir_that_is_a_file_is_a_usage_error(argv, tmp_path, capsys):
    """A --cache-dir naming an existing file is rejected before any work
    runs, with exit status 2 and no traceback; nothing is created."""
    path = tmp_path / "file"
    path.write_text("x")
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--cache-dir", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cache-dir" in err and "not a directory" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["file"] and path.read_text() == "x"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--k", "1"],
    ["verify-field", "--n", "3", "--k", "1"],
    ["verify-algebra", "--n", "3", "--k", "1"],
    ["fprime", "--n", "2", "--k", "2"],
    ["check-w", "--n", "3", "--k", "1"],
    ["cache", "list"],
    ["cache", "validate"],
    ["cache", "purge"],
], ids=lambda argv: "_".join(argv[:2]))
@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
def test_cache_dir_below_a_file_is_a_usage_error(argv, below, tmp_path, capsys):
    """A missing --cache-dir whose nearest existing ancestor is a file can
    never be made: it is rejected before any work runs, with exit status 2
    and no traceback, and nothing is created."""
    path = tmp_path / "file"
    path.write_text("x")
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--cache-dir", str(path / below)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cache-dir" in err and "not a directory" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["file"] and path.read_text() == "x"


def test_generic_check_w_keeps_its_skipped_record(tmp_path):
    code, report = run_cmd(["check-w", "--n", "2", "--k", "1", "--generic-q"],
                           tmp_path)
    assert code == 0
    assert [c["result"] for c in report["checks"]] == ["skipped"]


@pytest.mark.parametrize("command", ["enumerate", "verify-field",
                                     "verify-algebra"])
def test_stray_generic_q_is_a_usage_error(command, tmp_path, capsys):
    """Only fprime and check-w read --generic-q: every other command
    rejects it before any work runs, and echoes generic_q false."""
    argv = [command, "--n", "2", "--k", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--generic-q"])
    assert exc.value.code == 2
    assert "--generic-q" in capsys.readouterr().err
    _, report = run_cmd(argv, tmp_path)
    assert report["config"]["generic_q"] is False


@pytest.mark.parametrize("command", ["fprime", "check-w"])
def test_generic_q_is_echoed_where_it_is_read(command, tmp_path):
    code, report = run_cmd([command, "--n", "3", "--k", "1", "--generic-q"],
                           tmp_path)
    assert code == 0
    assert report["config"]["generic_q"] is True
    assert [c["result"] for c in report["checks"]] == ["skipped"]


def test_import_qzm_loads_no_dataclasses():
    """``import qzm`` stays cheap: its records are namedtuples or slotted
    classes, so the dataclasses module is not loaded."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, qzm; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert out.stdout.split() == ["False"]


def test_exploratory_runs_never_fail_exit(tmp_path):
    code, report = run_cmd(["check-w", "--n", "3", "--k", "3", "--i", "2"],
                           tmp_path, name="w33")
    # outcome recorded as a finding; exploratory failures keep exit 0
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["hook_w_vanishes"]["provenance"] == "exploratory"


def _benchmark_golden():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "golden.py")
    spec = importlib.util.spec_from_file_location("perfbench_golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


@pytest.mark.parametrize("key", sorted(_benchmark_golden().load()))
def test_reports_match_benchmark_golden(key, tmp_path):
    """Verdicts and their digest match the benchmark's golden record, for
    every command that it holds."""
    golden = _benchmark_golden()
    entry = golden.load()[key]
    code, report = run_cmd(entry["argv"], tmp_path)
    mismatches, digest_mismatch = golden.compare(entry, 1, code, report)
    assert mismatches == 0
    assert not digest_mismatch
