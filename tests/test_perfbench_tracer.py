"""The benchmark's tracer against the program it traces.

``perfbench/tracer.py`` patches qzm functions by name and reads block
attributes (``total_words``, ``live_words`` and the pivot count
``len(rref)``) from what ``build_block`` returns.  A rename in qzm that the
tracer still uses fails here, not only in a benchmark run.
"""

import os
import sys
from pathlib import Path

import qzm.basis
from qzm import cli

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_tracer_sees_cold_builds_and_warm_loads(monkeypatch, tmp_path):
    """Installed, the tracer records each block a cold ``fprime --n 2 --k 2``
    builds with its pivot count, and a warm run on the same cache as loads
    that all hit; uninstalled, qzm is as it was."""
    cache_dir = str(tmp_path / "cache")
    made = []           # the context of each command
    real = cli._context
    monkeypatch.setattr(cli, "_context", lambda cfg, generic: made.append(
        real(cfg, generic)) or made[-1])
    build_block = qzm.basis.build_block
    t = tracer.Tracer()
    t.install()
    try:
        spans = []
        for _ in ("cold", "warm"):
            first = len(t.spans)
            cli.run(["fprime", "--n", "2", "--k", "2", "--cache-dir",
                     cache_dir, "--format", "json", "--out", os.devnull])
            spans.append([(s[tracer.NAME], s[tracer.ATTRS])
                          for s in t.spans[first:]])
    finally:
        t.uninstall()
    assert qzm.basis.build_block is build_block
    (cold, warm), (cold_spans, warm_spans) = made, spans

    builds = [a for name, a in cold_spans if name == "basis.build_block"]
    assert len(builds) == cold.stats["blocks_built"] == len(cold._blocks) > 1
    assert sorted((a["total_words"], a["live_words"], a["pivots"])
                  for a in builds) == sorted(
        (bb.total_words, bb.live_words, len(bb.rref))
        for bb in cold._blocks.values())
    assert sum(a["pivots"] for a in builds) > 0

    assert not [name for name, _ in warm_spans if name == "basis.build_block"]
    hits = [a["hit"] for name, a in warm_spans if name == "cache.load_block"]
    assert hits and all(hits)
    assert len(hits) == warm.stats["blocks_loaded"] == len(warm._blocks)
    assert warm.stats["blocks_built"] == 0
