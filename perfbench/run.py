"""Benchmark for the dcnbench package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 30 --trace 0

Builds the workload's topologies from the checkout's ``src/`` (set-up, timed
several times), makes its inputs from ``--seed``, repeats passes over its
operations for ``--seconds`` seconds, checks every output against an oracle,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from spans around every call into the package, plus the tracing overhead.
The full result (every figure, the failure table and the digest of every
seeded output) is written to ``perfbench/out/``; traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAYERS = ("graph", "metrics", "routing", "traffic", "flitsim")  # modules the ops call


def load_package():
    """Import dcnbench from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dcnbench" / "__init__.py").is_file():
        sys.exit(f"error: no dcnbench sources under {src}")
    sys.path.insert(0, str(src))
    import dcnbench

    if Path(dcnbench.__file__).resolve().parent != src / "dcnbench":
        sys.exit(f"error: imported dcnbench from {dcnbench.__file__}, not {src}")


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(rec, workload) -> dict:
    """User-visible figures, from the untraced passes."""
    out = {
        "setup_s": (statistics.fmean(rec.setup_s) * rec.setup_factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_s": (rec.pass_s(), "s"),
    }
    out.update(workload.summary(rec))
    return out


def per_layer(rec, workload, ops) -> dict:
    """Per-layer figures, from the spans of the traced passes."""
    out = {}
    builds = [k for k in rec.setup_calls if k.startswith("builders.")]
    for key in builds:
        out[f"{key}_s"] = (rec.layer_s(key), "s")
    out["builders.all.busy_s"] = (sum(rec.layer_s(k) for k in builds), "s")
    for module in LAYERS:
        layer_ops = [op for op in ops if op.key.startswith(module + ".")]
        out[f"{module}.all.busy_s"] = (sum(rec.layer_s(op.key) for op in layer_ops), "s")
        out[f"{module}.all.calls"] = (sum(op.calls for op in layer_ops), "count")
        # failed outputs of one pass; an op that raised failed all its calls
        failed = sum(sum(rec.checked[op.key].values()) if op.key in rec.checked else op.calls
                     for op in layer_ops)
        out[f"{module}.all.failed"] = (failed, "count")
    untraced, traced = rec.pass_totals[False], rec.pass_totals[True]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1 if traced else 0.0
    out["perfbench.trace.overhead_share"] = (overhead, "ratio")
    out["perfbench.trace.spans_per_pass"] = (rec.traced_spans / max(1, len(traced)), "count")
    out.update(workload.layers(rec))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    from harness import Recorder
    from oracles import sha
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload](args.seed)
    rec = Recorder(tracing=bool(args.trace))
    with rec.probe:
        state = rec.set_up(workload.setup, min_reps=3, min_s=2.0)
        workload.inputs(state)
        ops = workload.ops(state)
        rec.measure(ops, args.seconds)

    figures = per_layer(rec, workload, ops) if args.trace else end_to_end(rec, workload)
    # a layer this workload bypasses did no work: its figures read 0
    metrics = {
        name: {"value": figures.get(name, (0.0,))[0], "unit": unit}
        for name, unit in declared.items()
    }
    correct = rec.failed == 0
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(rec.pass_factors),
        "speed_samples": len(rec.probe.samples),
        "setup_factor": rec.setup_factor,
        "pass_factors": rec.pass_factors,
        "raw_setup_s": rec.setup_s,
        "raw_op_samples_s": rec.raw_op_s,
        "op_samples_s": rec.op_s,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "failures": rec.failure_table(),
        "digest_sha256": sha(rec.digest),
        "digest": rec.digest,
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True, default=repr))
    if args.trace:
        spans = {"fields": ["id", "parent", "name", "start", "end", "error"],
                 "spans": rec.tracer.spans}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"workload {args.workload} seed {args.seed}: {len(rec.pass_factors)} passes, "
          f"digest {detail['digest_sha256']}")
    for key, tags in detail["failures"].items():
        print(f"failed {key}: {tags}")
    for name, (value, unit) in sorted(figures.items()):
        if name not in metrics:
            print(f"{name} = {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
