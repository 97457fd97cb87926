"""On-disk cache of quotient-basis records.

One JSON file per class family, named by a stable hash of the key
(n, field, chirality, row content); a block record per flavor content is
merged into the family file as blocks get computed.  Every file carries a
versioned header including the epsilon-convention tag; files whose header
does not match the requesting context are ignored on load and quarantined
by validation, which also re-reduces a sample of relation instances through
every stored block.  Writes are atomic (temp file, then rename).  Barred
classes satisfy the same relations as unbarred ones in (row, flavor)
terms, so records are stored once under chirality "unbarred".

A human-readable ``index.txt`` maps file hashes back to keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .basis import BlockBasis, FockContext
from .fock import (eps_tag, word_from_letters, word_is_dead, word_letters,
                   word_sort_key)

SCHEMA = "qzm-basis/1"
VALIDATE_SAMPLES = 5    # relation instances re-reduced per stored block


def _canon_key(n, field_tag, row_content):
    return {
        "schema": SCHEMA,
        "n": n,
        "field": field_tag,
        "chirality": "unbarred",
        "row_content": list(row_content),
    }


def _header_ok(ctx, key, data):
    return ({k: data.get(k) for k in key} == key
            and data.get("eps") == eps_tag(ctx.eps_sign))


def _key_hash(key):
    blob = json.dumps(key, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _encode_word(n, w):
    return [[r, f] for r, f in word_letters(n, w)]


def _decode_word(n, enc):
    return word_from_letters(n, [(r, f) for r, f in enc])


def _encode_block(ctx, bb):
    n = ctx.n
    rows = []
    for lead_idx in sorted(bb.rref):
        tail = bb.rref[lead_idx]
        rows.append([
            _encode_word(n, bb.words[lead_idx]),
            [[_encode_word(n, bb.words[t]), s.encode()]
             for t, s in sorted(tail.items())],
        ])
    return {
        "flavor_content": list(bb.key[1]),
        "total_words": bb.total_words,
        "dim": bb.dim,
        "basis": [_encode_word(n, w) for w in bb.basis_words],
        "rows": rows,
    }


def _decode_block(ctx, key, record):
    n = ctx.n
    field = ctx.field
    basis = [_decode_word(n, e) for e in record["basis"]]
    leads = [_decode_word(n, r[0]) for r in record["rows"]]
    words = sorted(set(basis) | set(leads), key=word_sort_key)
    index = {w: i for i, w in enumerate(words)}
    rref = {}
    for enc_lead, enc_tail in record["rows"]:
        lead = index[_decode_word(n, enc_lead)]
        rref[lead] = {index[_decode_word(n, we)]: field.decode(se)
                      for we, se in enc_tail}
    return BlockBasis(key, words, index, rref, record["total_words"])


def _sample_reduces_to_zero(ctx, bb):
    """The first VALIDATE_SAMPLES relation instances of the block chain that
    touch a live word reduce to zero through the block's echelon form alone
    (every live word of the chain is a basis or a pivot word of the block)."""
    n, h = ctx.n, ctx.h
    count = 0
    for inst in ctx.relation_instances(*bb.key):
        live = [(w, c) for w, c in inst.terms.items()
                if not word_is_dead(n, h, w)]
        if not live:
            continue
        acc = {}
        for w, c in live:
            for fw, s in bb.reduce_word(w):
                cs = c if s is None else c * s
                acc[fw] = acc[fw] + cs if fw in acc else cs
        if any(not v.is_zero() for v in acc.values()):
            return False
        count += 1
        if count == VALIDATE_SAMPLES:
            break
    return True


class DiskCache:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _family_path(self, key):
        return os.path.join(self.directory, _key_hash(key) + ".json")

    def _read_family(self, ctx, row_content):
        key = _canon_key(ctx.n, ctx.field.tag(), row_content)
        path = self._family_path(key)
        if not os.path.exists(path):
            return key, path, None
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return key, path, None
        if not _header_ok(ctx, key, data):
            return key, path, None
        return key, path, data

    def load_block(self, ctx, block_key):
        row_content, flavor_content = block_key
        _, _, data = self._read_family(ctx, row_content)
        if data is None:
            return None
        record = data["blocks"].get(",".join(map(str, flavor_content)))
        if record is None:
            return None
        return _decode_block(ctx, block_key, record)

    def store_block(self, ctx, block_key, bb):
        row_content, flavor_content = block_key
        key, path, data = self._read_family(ctx, row_content)
        if data is None:
            data = dict(key)
            data["eps"] = eps_tag(ctx.eps_sign)
            data["blocks"] = {}
        data["blocks"][",".join(map(str, flavor_content))] = _encode_block(ctx, bb)
        self._atomic_write(path, data)
        self._update_index(key)

    def _atomic_write(self, path, data):
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _update_index(self, key):
        path = os.path.join(self.directory, "index.txt")
        line = f"{_key_hash(key)}  {json.dumps(key, sort_keys=True)}\n"
        existing = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                existing = fh.read()
        if line not in existing:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line)

    # -- maintenance ---------------------------------------------------------

    def validate(self, data):
        """True when a family record matches this version and the pinned
        convention, and a sample of relation instances of every block
        reduces to zero through the stored data.

        Malformed data reads as invalid; any other error propagates.
        """
        try:
            n, field = data["n"], data["field"]
            ctx = (FockContext(n, generic=True) if field == "generic"
                   else FockContext(n, int(field.split(":")[1]) - n))
            rc = tuple(data["row_content"])
            if not _header_ok(ctx, _canon_key(n, ctx.field.tag(), rc), data):
                return False
            for fc_key, record in sorted(data["blocks"].items()):
                fc = tuple(int(x) for x in fc_key.split(","))
                bb = _decode_block(ctx, (rc, fc), record)
                if not _sample_reduces_to_zero(ctx, bb):
                    return False
            return True
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
            return False

    def records(self):
        """(file name, parsed record) pairs; the record is None when the
        file cannot be read or does not hold a JSON object."""
        out = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                data = None
            out.append((name, data if isinstance(data, dict) else None))
        return out

    def quarantine(self, name):
        src = os.path.join(self.directory, name)
        os.replace(src, src + ".quarantined")

    def purge(self):
        removed = 0
        for name in list(os.listdir(self.directory)):
            if name.endswith(".json") or name.endswith(".quarantined") \
                    or name == "index.txt":
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        return removed
