"""Golden verdict records for every command the benchmark runs.

A report is projected to the fields that carry its verdicts --
``name, params, result, provenance, certificate, detail`` per record --
dropping ``seconds`` (timing) and ``sizes`` (a warm-cache ``fprime`` report
carries ``sizes.max_block_words: 0`` where a cold one carries the real
size).  ``golden.json`` holds, per command, the expected exit status, the
projected records at the default seed, and a digest of the projection at
the default and at one held-out seed.

Regenerate (about half a minute) with:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SEEDS = (1, 2)          # default seed and the held-out seed
FIELDS = ("name", "params", "result", "provenance", "certificate", "detail")


def project(report):
    return [{k: rec[k] for k in FIELDS} for rec in report["checks"]]


def digest(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _key(rec):
    return json.dumps([rec["name"], rec["params"]], sort_keys=True)


def compare(entry, seed, exit_code, report):
    """(verdict mismatches, digest mismatch) of one command's output.

    A verdict mismatch is a record whose result differs from the golden
    one with the same name and params, a record missing on either side, or
    an unexpected exit status.  The digest is checked at the seeds recorded
    for it, and at every seed when those digests agree (the projection does
    not depend on the seed).
    """
    records = project(report)
    expected = {}
    for rec in entry["records"]:
        expected.setdefault(_key(rec), []).append(rec["result"])
    mismatches = int(exit_code != entry["exit"])
    for rec in records:
        results = expected.get(_key(rec))
        if not results:
            mismatches += 1
        elif results.pop(0) != rec["result"]:
            mismatches += 1
    mismatches += sum(len(r) for r in expected.values())
    digests = set(entry["digests"].values())
    want = entry["digests"].get(str(seed),
                                digests.pop() if len(digests) == 1 else None)
    return mismatches, want is not None and want != digest(records)


def regenerate():
    from workloads import GOLDEN_COMMANDS, run_command
    out = {}
    for key, argv in GOLDEN_COMMANDS.items():
        entry = {"argv": argv, "digests": {}}
        for seed in SEEDS:
            code, report = run_command(argv + ["--seed", str(seed)])
            records = project(report)
            entry["digests"][str(seed)] = digest(records)
            if seed == SEEDS[0]:
                entry["exit"] = code
                entry["records"] = records
            elif code != entry["exit"]:
                raise SystemExit(f"{key}: exit status depends on the seed")
        out[key] = entry
        print(key, entry["exit"], entry["digests"], file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    regenerate()
