"""qzm benchmark runner: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload growth_scan --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` the workload's command sequence is
repeated until ``--seconds`` have passed, or would be by the middle of
the next sequence (at least once), while a timer samples the reference
loop (reference.py), and the end-to-end metrics are reported:

  wall_ref     median over the sequences of a run of the sequence's wall
               time (the timer's handler taken out), divided by the median
               time of the reference loop during that sequence
  setup_s      median, over several fresh interpreters, of ``import qzm``
               plus the epsilon-convention calibration
  peak_rss_mb  peak resident set size of this process

The median sequence time itself (``wall_s``) and the reference loop time
are printed too, as text lines.

With ``--trace 1`` the scalar microbenchmarks run, then the sequence runs
once untraced and once with every layer's public functions wrapped in
spans (see tracer.py), and the per-layer metrics are reported, including
the tracing overhead (traced minus untraced wall time).  Spans are written
to ``.perfbench_out/`` in the checkout.

Every command's report is checked against golden.json.  Verdict
mismatches and failed commands (raised, or a ``budget`` result) are printed
by name; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import golden

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 30

SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import qzm
qzm.resolve_eps_sign()
dt = time.perf_counter() - t0
print(qzm.__file__)
print(repr(dt))
"""


def _import_program():
    """Import qzm from this checkout's src, or exit nonzero without a result."""
    init = os.path.join(SRC, "qzm", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no qzm sources at {init}")
    sys.path.insert(0, SRC)
    import qzm
    if os.path.abspath(qzm.__file__) != init:
        sys.exit(f"perfbench: imported {qzm.__file__}, expected {init}")
    return qzm


def measure_setup(count):
    """Setup times of ``count`` fresh interpreters, started one by one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True).stdout.split()
        if os.path.abspath(out[0]) != os.path.join(SRC, "qzm", "__init__.py"):
            sys.exit(f"perfbench: setup imported {out[0]}")
        samples.append(float(out[1]))
    return samples


class Verdicts:
    """Tallies command outcomes against the golden records."""

    def __init__(self, golden_records, seed):
        self.golden = golden_records
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.digest_mismatches = 0

    def check(self, outputs):
        for label, key, code, payload in outputs:
            self.attempted += 1
            if payload is None:
                self.failed += 1
                self.mismatches += len(self.golden[key]["records"])
                print(f"command {label}: raised", file=sys.stderr)
                continue
            report = json.loads(payload)
            if any(rec["result"] == "budget" for rec in report["checks"]):
                self.failed += 1
            bad, bad_digest = golden.compare(self.golden[key], self.seed,
                                             code, report)
            if bad or bad_digest:
                print(f"command {label}: {bad} verdict mismatches, digest "
                      f"{'differs' if bad_digest else 'ok'}", file=sys.stderr)
            self.mismatches += bad
            self.digest_mismatches += int(bad_digest)

    @property
    def correct(self):
        return self.mismatches == 0 and self.digest_mismatches == 0

    def lines(self):
        return [("verdict_mismatches", self.mismatches, "count"),
                ("digest_mismatches", self.digest_mismatches, "count"),
                ("failed_frac", self.failed / max(self.attempted, 1), "ratio")]


def run_untraced(workload, seed, seconds, verdicts, sampler):
    """Sequence wall times, and each one over the reference loop's median
    time during that sequence (the host's speed can change within a run)."""
    from workloads import run_sequence
    walls, ratios = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        first = len(sampler.samples)
        sampler.start()
        busy = sampler.busy
        try:
            wall, outputs, _ = run_sequence(workload, seed, OUT_DIR)
        finally:
            sampler.stop()
        wall -= sampler.busy - busy
        walls.append(wall)
        ratios.append(wall / statistics.median(sampler.samples[first:]))
        verdicts.check(outputs)
        last = perf_counter() - t0
        if perf_counter() - t_start + last / 2 > seconds:
            break
    return walls, ratios


def run_traced(workload, seed, verdicts):
    import scalar_bench
    from tracer import Tracer, layer_metrics
    from workloads import cli_labels, run_sequence

    metrics, scalars_ok = scalar_bench.run(seed)
    untraced, outputs, _ = run_sequence(workload, seed, OUT_DIR)
    verdicts.check(outputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced, outputs, dir_bytes = run_sequence(workload, seed, OUT_DIR,
                                                  call=tracer.call)
    finally:
        tracer.uninstall()
    verdicts.check(outputs)
    metrics.update(layer_metrics(tracer, cli_labels(), traced))
    metrics["cache.dir_bytes"] = (dir_bytes, "B")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    tracer.write_jsonl(os.path.join(OUT_DIR,
                                    f"trace_{workload}_seed{seed}.jsonl"))
    # a block built during the warm cache pass is a silent cache miss
    ok = scalars_ok and metrics["basis.build_block.warm_calls"][0] == 0
    if not scalars_ok:
        print("scalar microbenchmark results are wrong", file=sys.stderr)
    return metrics, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    qzm = _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    verdicts = Verdicts(golden.load(), args.seed)

    qzm.resolve_eps_sign()          # warm this process before timing

    if args.trace == 0:
        from reference import Sampler
        sampler = Sampler()
        # the first start compiles bytecode and is not counted; the samples
        # are split around the timed loop so that they see the same machine
        measure_setup(1)
        setup = measure_setup(SETUP_SAMPLES // 2)
        walls, ratios = run_untraced(args.workload, args.seed, args.seconds,
                                     verdicts, sampler)
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        wall_s = statistics.median(walls)
        ref_s = statistics.median(sampler.samples)
        metrics = {
            "wall_ref": (statistics.median(ratios), "ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MiB"),
        }
        print(f"sequences {len(walls)}: wall_s "
              + " ".join(f"{w:.4f}" for w in walls))
        print(f"wall_s {wall_s} s")
        print(f"reference_ms {ref_s * 1e3} ms "
              f"({len(sampler.samples)} loops)")
        if sampler.wrong:
            print(f"reference loop: {sampler.wrong} wrong results",
                  file=sys.stderr)
        ok = verdicts.correct and not sampler.wrong
    else:
        metrics, ok = run_traced(args.workload, args.seed, verdicts)
        ok = ok and verdicts.correct

    for name, value, unit in verdicts.lines():
        print(f"{name} {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
