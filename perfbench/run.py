"""Layered FE-throughput benchmark for sfekit.

Run from the repository root:

    python3 perfbench/run.py --workload colon-search --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the workload again with spans around every layer and reports the per-layer
metrics instead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units are read from BENCHMARK.json at the repository root. See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
# Listed here rather than imported from workloads.py, because BLAS threads
# must be pinned before numpy is first imported.
WORKLOADS = ("colon-search", "colon-swarm", "wide-search", "matrix-pool")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts(np, nproc, blas_threads, workers):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    facts = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "pool_workers": workers,
    }
    for key, name in (("l2_bytes", "LEVEL2_CACHE_SIZE"), ("l3_bytes", "LEVEL3_CACHE_SIZE")):
        try:
            res = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=False)
            facts[key] = int(res.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            facts[key] = None
    return facts


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # One process per core at most: the pool runs nproc single-threaded
    # workers, the serial workloads one process that may use every core.
    workers = nproc
    blas_threads = 1 if args.workload == "matrix-pool" else nproc
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import sfekit

    if Path(sfekit.__file__).resolve().parent != src / "sfekit":
        print(f"sfekit imported from {sfekit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    facts = machine_facts(np, nproc, blas_threads, workers)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    out = workloads.Outcome()
    try:
        if args.workload == "matrix-pool":
            workloads.run_matrix(args.seed, args.seconds, bool(args.trace), workdir, out,
                                 workers)
        else:
            workloads.run_serial(args.workload, args.seed, args.seconds, bool(args.trace),
                                 workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = set(out.metrics) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.runs.jsonl", "w") as fh:
        fh.write(json.dumps({"machine": facts}) + "\n")
        for k, r in enumerate(out.runs):
            fh.write(json.dumps({
                "run": k, "algorithm": r.algorithm, "dataset": r.dataset, "seed": r.seed,
                "wall_s": r.wall_s, "fes": r.used, "fitness": r.fitness,
                "n_selected": r.n_selected, "handoff_fes": r.handoff_fes,
                "digest": r.digest, "problems": r.problems,
            }) + "\n")
    if args.trace:
        out.tracer.write(f"{stem}.spans.jsonl")

    print("machine " + json.dumps(facts))
    for k, r in enumerate(out.runs):
        check = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
        print(f"run {k:3d} {r.algorithm:17s} ds={r.dataset} seed={r.seed} "
              f"wall={r.wall_s:.3f}s fes={r.used} fitness={r.fitness:.2f} "
              f"selected={r.n_selected} handoff={r.handoff_fes} digest={r.digest} {check}")
    failed = sum(not r.ok for r in out.runs)
    print(f"{args.workload}: {len(out.runs)} runs, {failed} failed "
          f"(error_rate {failed / len(out.runs):.4f})")
    for key, value in out.info.items():
        print(f"  {key} = {value}")
    metrics, missing = {}, []
    for m in wanted:
        value = out.metrics.get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"  {m['name']:28s} {float(value):14.6g} {m['unit']}")
    if missing and not args.trace:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    if missing:
        print(f"  not exercised by {args.workload} (reported as 0): {', '.join(missing)}")
    for note in out.notes:
        print(f"  note: {note}")
    print(f"  runs: {stem.relative_to(ROOT)}.runs.jsonl"
          + (f", spans: {stem.relative_to(ROOT)}.spans.jsonl" if args.trace else ""))
    print(json.dumps({"correct": failed == 0, "attempted": len(out.runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
