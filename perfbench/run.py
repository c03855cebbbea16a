"""hscl benchmark: one workload per call, end-to-end metrics or a traced per-layer split.

    python3 perfbench/run.py --workload contrastive --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; hscl is imported from its ``src/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer ones. The lines before it
give every metric with its unit and sample count, the output checks, and the
machine the numbers come from; numbers from different machines are not
comparable. A JSON copy (with the spans of a traced run) goes to
``.perfbench_out/``. The exit code is 0 only when every output check passed.

``--write-reference`` recomputes ``perfbench/reference.json`` from the code
in the checkout; do that only when the arithmetic is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

# pinned before numpy is imported (the workload modules import it)
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# printed beside the declared metrics, not declared: error_rate is carried by
# failed/attempted, and mining time reads 0 on the workload that never mines
UNDECLARED_UNITS = {"error_rate": "ratio", "losses.mine_ms_per_step": "ms"}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them (kind: end_to_end or per_layer)."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(outcome, which: str) -> dict[str, list[float]]:
    """Per-repetition samples of every end-to-end metric: ``which`` is "norm" or "raw"."""
    k = 0 if which == "norm" else 1
    reps = [rep[k] for rep in outcome.reps]
    samples = {name: [r[name] for r in reps] for name in reps[0]} if reps else {}
    samples["setup_s"] = outcome.setup[which]
    samples["peak_rss_mb"] = [outcome.peak_rss_mb]
    samples["error_rate"] = [len(outcome.ledger.failures) / max(outcome.ledger.attempted, 1)]
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("contrastive", "regression", "study"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import workloads

    try:
        hs = workloads.import_hscl()
    except ImportError as exc:
        print(f"error: cannot import hscl from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        values = {name: workloads.reference_values(hs, spec) for name, spec in workloads.SPECS.items()}
        with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {workloads.REFERENCE}")
        return 0

    spec = workloads.SPECS[args.workload]
    e2e_units, layer_units = declared("end_to_end"), declared("per_layer")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        outcome = workloads.run_workload(spec, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = outcome.ledger
    facts = machine_facts()
    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  machine {json.dumps(facts)}")
    for entry in ledger.failures:
        print(f"FAILED {entry['op']}: {entry['error']}")
    samples, wall = end_to_end(outcome, "norm"), end_to_end(outcome, "raw")
    print("  end-to-end (median of n repetitions; times normalised to the speed kernel, wall clock beside)")
    for name, unit in {**e2e_units, **UNDECLARED_UNITS}.items():
        values = samples.get(name)
        if not values:
            continue
        print(f"  {name:24s} {statistics.median(values):14.6g} {unit:8s} n={len(values):<3d} "
              f"[min {min(values):.6g}, max {max(values):.6g}]  wall {statistics.median(wall[name]):.6g}")
    if outcome.layer is not None:
        for name, value in outcome.layer.items():
            print(f"  {name:36s} {value:14.6g} {layer_units.get(name) or UNDECLARED_UNITS[name]}")
        for group in outcome.breakdown:
            shares = ", ".join(f"{k} {v:.1%}" for k, v in group["share_of_step"].items())
            print(f"  {group['stage']} step, {group['variant']}: {group['steps']} steps, "
                  f"p50 {group['step_ms_p50']:.3f} ms, {group['graph_nodes_per_step']:g} nodes/step, "
                  f"{group['pairs_per_step']:g} pairs/step; {shares}")

    if args.trace:
        layer = outcome.layer or {}
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in layer_units.items() if name in layer}
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in e2e_units.items()
            if samples.get(name)
        }
    # every declared metric must be there for the run to count
    correct = not ledger.failures and len(metrics) == len(layer_units if args.trace else e2e_units)
    result = {"correct": correct, "attempted": ledger.attempted, "failed": len(ledger.failures),
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{spec.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "machine": facts, "samples": samples, "wall_samples": wall,
                   "ops": ledger.ops,
                   "clock": {"kernels": outcome.clock.kernels, "calls": outcome.clock.calls},
                   "breakdown": outcome.breakdown,
                   "spans": [s.to_json() for s in outcome.spans]}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
