"""Verdict benchmark for orbitcount.

    python3 bench/run.py --workload lie-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, one caller, one operation at a time (a closed loop,
no worker pool).  The set-up draws the workload's seeded instance set
through the package's samplers, three times, and reports the median.  The
run then repeats whole rounds over that set, at least MIN_OPS operations,
and stops at the round boundary nearest to --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
round, then traced (set-up + round) pairs up to the pair boundary
nearest to --seconds; it prints the median per-layer metrics of one
round (verify.sampler_ms: of one set-up) and writes the first pair's
spans to bench/out/.
--workload all runs the three workloads one after another, each in its
own process.  The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("lie-sweep", "wide-order", "crosscheck")
SETUPS = 3
MIN_OPS = 200

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p95_ms": "ms", "peak_rss_mb": "MB"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Operations attempted and failed, and their durations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.op_s = []

    def round(self, insts, run_op, tracer=None, records=None):
        """Run every operation once; returns the round's wall time."""
        start = time.perf_counter()
        for idx, inst in enumerate(insts):
            before = dict(tracer.counts) if records is not None else None
            if tracer is not None:
                tracer.op = idx
            t0 = time.perf_counter()
            try:
                problems = run_op(inst, tracer)
            except Exception:  # one broken op must not stop the run
                print(f"op {inst.label()} raised:", file=sys.stderr)
                traceback.print_exc()
                problems = None
            dt = time.perf_counter() - t0
            self.op_s.append(dt)
            self.attempted += 1
            if problems is None or problems:
                self.failed += 1
            if problems:
                self.wrong += 1
                print(f"op {inst.label()} wrong: {'; '.join(problems)}",
                      file=sys.stderr)
            if records is not None:
                counts = {k: v - before.get(k, 0)
                          for k, v in tracer.counts.items()
                          if v != before.get(k, 0)}
                records.append({"type": "op", "op": idx, "label": inst.label(),
                                "anchor": inst.anchor, "ms": 1000 * dt,
                                "counts": counts})
        return time.perf_counter() - start

    def result(self, metrics):
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(build, seed, seconds, run_op):
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        insts = build(seed)
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(tally.round(insts, run_op))
        # stop at the round boundary nearest to --seconds
        left = seconds - (time.perf_counter() - start)
        if len(tally.op_s) >= MIN_OPS and left < statistics.median(walls) / 2:
            break
    ms = [1000 * s for s in tally.op_s]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": statistics.quantiles(ms, n=20)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{len(insts)} operations per round, {len(walls)} rounds, "
          f"{len(ms)} timed")
    return tally, {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}


def traced_run(build, seed, seconds, run_op, workload):
    import tracing
    import workloads
    tally = Tally()
    start = time.perf_counter()
    base_wall = tally.round(build(seed), run_op)
    tracer = tracing.Tracer()
    tracing.install(tracer, [workloads])
    pairs, walls, records = [], [], []
    pair_s = []
    while True:
        t0 = time.perf_counter()
        tracer.reset()
        tracer.op = "setup"
        insts = build(seed)
        sampler_ms = tracer.layer_metrics()["verify.sampler_ms"]
        tracer.reset()
        walls.append(tally.round(insts, run_op, tracer,
                                 records if not pairs else None))
        tracer.keep_spans = False
        pairs.append(tracer.layer_metrics())
        pairs[-1]["verify.sampler_ms"] = sampler_ms
        pair_s.append(time.perf_counter() - t0)
        # stop at the pair boundary nearest to --seconds, counted from the
        # start of the untraced round
        left = seconds - (time.perf_counter() - start)
        if left < statistics.median(pair_s) / 2:
            break
    metrics = {}
    for name, (kind, _) in tracing.LAYER_METRICS.items():
        unit = {"ms": "ms", "count": "count", "ratio": "ratio"}[kind]
        metrics[name] = {"value": statistics.median(p[name] for p in pairs),
                         "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(walls) - base_wall, "unit": "s"}

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with open(dump, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
        for op, sid, parent, name, t0, t1 in tracer.spans:
            fh.write(json.dumps({"type": "span", "op": op, "id": sid,
                                 "parent": parent, "name": name,
                                 "start": t0, "end": t1}) + "\n")
    print(f"{len(insts)} operations per round, {len(pairs)} traced rounds; "
          f"spans in {dump.relative_to(ROOT)}")
    for rec in records:
        if rec["anchor"]:
            c = rec["counts"]
            print(f"row {rec['label']}: {rec['ms']:.0f} ms traced, "
                  f"selfdual_closures={c.get('selfdual_closures', 0)} "
                  f"N={c.get('selfdual_hits', 0)}, "
                  f"stable_closures={c.get('stable_closures', 0)} "
                  f"nodes={c.get('stable_nodes', 0)}")
    return tally, metrics


def run_all(args):
    """Each workload in a child process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _args(argv)
    if not (SRC / "orbitcount" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads
    build = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = traced_run(build, args.seed, args.seconds,
                                    workloads.run_op, args.workload)
    else:
        tally, metrics = timed_run(build, args.seed, args.seconds,
                                   workloads.run_op)
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:34s} {m['value']:14.6f} {m['unit']}")
    print(f"{args.workload:10s} {'attempted':34s} {tally.attempted:14d}")
    print(f"{args.workload:10s} {'failed':34s} {tally.failed:14d}")
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
