"""The benchmark's workloads: closed-loop sequences of ``qzm`` CLI commands.

Each command runs in-process through ``qzm.cli.run``, one after another,
and builds its own fresh contexts, exactly as separate ``qzm`` invocations
would.  A workload step is ``(label, golden key, uses the cache)``; the
golden key names the command line in ``GOLDEN_COMMANDS`` whose verdicts the
step must reproduce.

``fprime --n 3 --k 2`` (the 29472-word block, 45-70 s on one 2-vCPU VM) is
not a step: a run could hold only one such command, and its run-to-run
spread there was 0.15-0.26 of its median.  growth_scan
runs ``fprime --n 2 --k 7`` in its place: the same elimination path, on
blocks of up to 1169 words.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

import qzm.cli

GOLDEN_COMMANDS = {
    "fprime_n2k2": ["fprime", "--n", "2", "--k", "2"],
    "fprime_n3k1": ["fprime", "--n", "3", "--k", "1"],
    "fprime_n2k7": ["fprime", "--n", "2", "--k", "7"],
    "checkw_n3k1": ["check-w", "--n", "3", "--k", "1", "--i", "2"],
    "checkw_n3k2": ["check-w", "--n", "3", "--k", "2", "--i", "2"],
    "verify_algebra_n3k2": ["verify-algebra", "--n", "3", "--k", "2"],
}

WORKLOADS = {
    # the paper's growth and hook checks; block elimination dominates
    "growth_scan": [(k, k, False) for k in (
        "fprime_n2k2", "fprime_n3k1", "fprime_n2k7", "checkw_n3k1",
        "checkw_n3k2")],
    # many small blocks, every relation template, bilinears, both fields
    "algebra_suite": [("verify_algebra_n3k2", "verify_algebra_n3k2", False)],
    # cold pass stores every block, warm pass loads every block
    "cache_roundtrip": [
        (f"{k}_{p}", k, True) for p in ("cold", "warm")
        for k in ("fprime_n2k2", "fprime_n3k1")],
}


def cli_labels():
    """Every step label of every workload, in a stable order."""
    return [label for steps in WORKLOADS.values() for label, _, _ in steps]


def run_command(argv):
    """Run one qzm command in-process: (exit status, parsed JSON report)."""
    code, payload = _run_cli(argv + ["--format", "json"])
    return code, json.loads(payload)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qzm.cli.run(argv)
    return code, buf.getvalue()


def run_sequence(workload, seed, work_dir, call=None):
    """Run a workload's commands once, timing the whole sequence.

    Returns (wall seconds, [(label, golden key, exit status, JSON text or
    None)], cache directory bytes).  A command that raises is recorded with
    exit status None and its traceback goes to stderr.  ``call(name, fn,
    argv)`` wraps each command, which is how the traced run opens its
    ``cli.<label>`` spans.
    """
    steps = WORKLOADS[workload]
    cache_dir = (tempfile.mkdtemp(prefix="cache-", dir=work_dir)
                 if any(cached for _, _, cached in steps) else None)
    outputs = []
    try:
        t0 = perf_counter()
        for label, key, cached in steps:
            argv = GOLDEN_COMMANDS[key] + ["--seed", str(seed),
                                           "--format", "json"]
            if cached:
                argv += ["--cache-dir", cache_dir]
            try:
                if call is None:
                    code, payload = _run_cli(argv)
                else:
                    code, payload = call(f"cli.{label}", _run_cli, argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code, payload = None, None
            outputs.append((label, key, code, payload))
        wall = perf_counter() - t0
        dir_bytes = 0
        if cache_dir is not None:
            for name in os.listdir(cache_dir):
                dir_bytes += os.path.getsize(os.path.join(cache_dir, name))
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, outputs, dir_bytes
