"""On-disk cache of quotient-basis records.

One JSON file per (row content, flavor content) block, named by a stable
hash of the block's full key (n, field, chirality, row content, flavor
content, relation-set fingerprint).  Every file carries a versioned header
naming that key, the epsilon-convention tag and a sha256 of the block
record's canonical JSON beside the record.  Builds store the sub-blocks
they build too (see qzm.basis), and trust the ones they load.  A record is
the block's echelon form over A as ``BlockBasis.rref`` keys it, by words:
its basis words, then each pivot with a nonempty tail and the tail, in
coordinate order.  Loading rebuilds the coordinates from the sub-blocks,
got through ``FockContext.block_basis``.  A file that cannot be read or decoded, or
whose header or checksum does not match the requesting context (other
relations included), or whose record is no reduced echelon form over those
coordinates with live class reps as basis words, or that states sizes
other than those the key and the basis give, is a miss, so the block is
rebuilt.  Validation quarantines a record unless it also equals a fresh
build that passes the exact certificate `FockContext.certify`, which alone
would pass a record with an extra pivot.

Writes are atomic (temp file, then rename) and nothing is merged, so
processes sharing a directory lose no blocks: writers of different blocks
touch different files, and writers of the same block write identical bytes,
since the echelon form is unique for a given span and word order.  Barred
words satisfy the same relations as unbarred ones in (row, flavor) terms and
reduce through the same blocks, so the key's chirality is always "unbarred".
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .basis import (BlockBasis, FockContext, block_coordinates, chain_sizes,
                    class_rep)
from .fock import (RELATIONS, eps_tag, word_from_letters, word_is_dead,
                   word_letters)

SCHEMA = "qzm-basis/6"


def _canon_key(n, field_tag, block_key):
    row_content, flavor_content = block_key
    return {
        "schema": SCHEMA,
        "n": n,
        "field": field_tag,
        "chirality": "unbarred",
        "row_content": list(row_content),
        "flavor_content": list(flavor_content),
        "relations": RELATIONS,
    }


def _header_ok(ctx, key, data):
    """The header names this block and convention, and the checksum matches
    the stored record."""
    return ({k: data.get(k) for k in key} == key
            and data.get("eps") == eps_tag()
            and data.get("sha256") == _digest(data.get("block")))


def _key_hash(key):
    blob = json.dumps(key, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _encode_word(n, w):
    return [[r, f] for r, f in word_letters(n, w)]


def _decode_word(n, enc):
    return word_from_letters(n, [(r, f) for r, f in enc])


def _canonical(record):
    """A block record's canonical JSON encoding, which its sha256 covers."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _digest(record):
    """sha256 of a block record's canonical JSON encoding."""
    return hashlib.sha256(_canonical(record).encode()).hexdigest()


def _encode_block(ctx, bb):
    """The block's rows over A: its basis words and each nonempty tail of
    ``rref``, keyed by coordinate words, in coordinate order."""
    n = ctx.n
    rows = [[_encode_word(n, lead),
             [[_encode_word(n, t), s.encode()] for t, s in red]]
            for lead, red in bb.rref.items() if red]
    return {
        "flavor_content": list(bb.key[1]),
        "total_words": bb.total_words,
        "live_words": bb.live_words,
        "dim": bb.dim,
        "basis": [_encode_word(n, w) for w in bb.basis_words],
        "rows": rows,
    }


def _decode_block(ctx, key, record):
    """The stored block over the coordinates its sub-blocks give, all in
    coordinate order; ValueError when a word is no coordinate or is listed
    twice, when a basis word is no live class rep, when a lead is a basis
    word, or its tail is empty or names a word that is not a basis word, or
    when a size the record states is not the one the key and the basis
    give."""
    n, field = ctx.n, ctx.field
    subs, words = block_coordinates(ctx, key)
    index = {w: j for j, w in enumerate(words)}

    def coordinates(encs):
        out = [_decode_word(n, e) for e in encs]
        if not index.keys() >= set(out) or len(set(out)) < len(out):
            raise ValueError("a word is no coordinate or is listed twice")
        return out

    free = set(coordinates(record["basis"]))
    rref = {w: () for w in words if w not in free}
    leads = coordinates([lead for lead, _ in record["rows"]])
    for lead, (_, enc_tail) in zip(leads, record["rows"]):
        tail = dict(zip(coordinates([t for t, _ in enc_tail]),
                        (field.decode(s) for _, s in enc_tail)))
        if not tail or lead in free or not free >= tail.keys():
            raise ValueError(f"row {lead.hex()} is not a reduced pivot")
        rref[lead] = tuple([(t, tail[t]) for t in sorted(tail, key=index.get)])
    memo = {}
    for w in free:
        if class_rep(n, w, memo)[0] != w or word_is_dead(n, ctx.h, w):
            raise ValueError(f"basis word {w.hex()} is no live rep")
    bb = BlockBasis(key, field, subs, rref, [w for w in words if w in free],
                    *chain_sizes(ctx, key))
    if any(record[k] != getattr(bb, k)
           for k in ("total_words", "live_words", "dim")):
        raise ValueError("a size the record states is not the block's")
    return bb


def _read_json(path):
    """The JSON object a file holds, or None when the file cannot be read or
    does not hold an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class DiskCache:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.directory, _key_hash(key) + ".json")

    def load_block(self, ctx, block_key):
        key = _canon_key(ctx.n, ctx.field.tag(), block_key)
        data = _read_json(self._path(key))
        if data is None or not _header_ok(ctx, key, data):
            return None
        try:
            return _decode_block(ctx, block_key, data["block"])
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
            return None     # malformed record: a miss, so the block is rebuilt

    def store_block(self, ctx, block_key, bb):
        key = _canon_key(ctx.n, ctx.field.tag(), block_key)
        blob = _canonical(_encode_block(ctx, bb))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        header = json.dumps(dict(key, eps=eps_tag(), sha256=digest),
                            sort_keys=True)
        # serialised once: "block" sorts before every header key
        self._atomic_write(self._path(key),
                           '{"block": ' + blob + ", " + header[1:])

    def _atomic_write(self, path, text):
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- maintenance ---------------------------------------------------------

    def validate(self, data, contexts, budget):
        """True when a block record matches this version and the pinned
        convention, and equals a fresh build that ``FockContext.certify``
        passes.  ``contexts`` maps (n, field) to the disk-less context, with
        this ``budget``, that one validation run keeps for it.  Malformed
        data reads as invalid; any other error propagates."""
        try:
            n, field = data["n"], data["field"]
            if type(n) is not int or not isinstance(field, str):
                return False
            ctx = contexts.get((n, field))
            if ctx is None:
                ctx = contexts[n, field] = (
                    FockContext(n, generic=True, budget=budget)
                    if field == "generic" else
                    FockContext(n, int(field.split(":")[1]) - n, budget=budget))
            block_key = (tuple(data["row_content"]),
                         tuple(data["flavor_content"]))
            if not _header_ok(ctx, _canon_key(n, ctx.field.tag(), block_key),
                              data):
                return False
            # the header check hashed the record: equal digests, equal records
            fresh = ctx.block_basis(*block_key)
            return (data["sha256"] == _digest(_encode_block(ctx, fresh))
                    and ctx.certify(fresh))
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
            return False

    def records(self):
        """(file name, parsed record) pairs, each file parsed only when it
        is reached, so one record is held at a time; the record is None
        when the file cannot be read or does not hold a JSON object."""
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".json"):
                yield name, _read_json(os.path.join(self.directory, name))

    def quarantine(self, name):
        src = os.path.join(self.directory, name)
        os.replace(src, src + ".quarantined")

    def purge(self):
        removed = 0
        for name in list(os.listdir(self.directory)):
            # index.txt is left over from the one-file-per-family layout
            if name.endswith(".json") or name.endswith(".quarantined") \
                    or name == "index.txt":
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        return removed
