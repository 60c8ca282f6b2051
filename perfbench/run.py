"""Training benchmark of mndbn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the library is imported from its
`src/`). The workloads and metrics are listed in BENCHMARK.json; see
perfbench/README.md for what each measures and why. With --trace 0 the
last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, and the spans
are written to .bench_out/.

Exit codes: 0 the run completed (its result says whether the outputs were
correct), 2 bad arguments or no library to benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def load_bench():
    """Pin BLAS to one thread, then import the benchmark and the library.

    The thread-count variables must be set before numpy is first imported;
    `mndbn.cli` imports only the standard library, so its list of variables
    is read first. Raises ImportError when the tree has no library.
    """
    src = ROOT / "src"
    if not (src / "mndbn" / "__init__.py").is_file():
        raise ImportError(f"no mndbn sources under {src}")
    if "numpy" in sys.modules:
        raise ImportError("numpy was imported before the thread count was pinned")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from mndbn.cli import THREAD_ENV_VARS

    for var in THREAD_ENV_VARS:
        os.environ[var] = "1"
    import bench
    import mndbn

    if not Path(mndbn.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"mndbn was imported from {mndbn.__file__}, not from {src}")
    return bench


def metric_spec(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def measure(bench, name: str, seed: int, seconds: float, trace: bool, workload=None):
    """Run the benchmark once; returns (summary, metrics as printed, spans).

    Every metric that BENCHMARK.json lists for this mode must be measured,
    or the run is not correct.
    """
    summary, values, spans = bench.run(name, seed, seconds, trace, OUT_DIR, workload)
    spec = metric_spec(trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec if m["name"] in values}
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        summary["correct"] = False
        summary["failures"].append(f"{len(missing)} metrics not measured: {', '.join(missing[:3])} ...")
    return summary, metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_bench()
        metric_spec(bool(args.trace))
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    summary, metrics, spans = measure(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    if spans is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"summary": summary, "spans": spans}), encoding="utf-8")
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
    print("environment: " + json.dumps(summary["environment"], sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {summary['attempted']} jobs attempted, "
        f"{summary['failed']} failed, {summary['setup_reps']} set-ups"
    )
    for problem in summary["failures"]:
        print(f"FAILED {problem}")
    for key in ("final_train_loss", "test_accuracy_pct"):
        if key in summary:
            print(f"  {key:<40} {summary[key]:.6g}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
