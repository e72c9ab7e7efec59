"""End-to-end benchmark of the Table-II pipeline (surrogate -> table2 cold -> warm).

Usage, from the repository root::

    python3 perfbench/run.py --workload train-iris-cold --seed 0 --seconds 45 --trace 0

Each iteration of the workload runs in a fresh child process
(``perfbench/worker.py``), one at a time, with BLAS pinned to one thread;
iterations repeat until ``--seconds`` have passed (at least three).  The
run checks every iteration's outputs bitwise against the recorded
reference for the seed (``perfbench/references.json``) and against each
other, prints a summary, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics; spans of
the traced iterations are written to ``.bench_work/results/``.
``--record`` runs one iteration and stores its outputs as the reference for
the seed.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = HERE / "references.json"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lane_epochs_per_s", "1/s"),
    ("mc_evals_per_s", "1/s"),
    ("surrogate_points_per_s", "1/s"),
)


def _child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY_DIR", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_ARTIFACTS=str(workdir / "artifacts"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_iteration(workload: str, seed: int, trace: bool, index: int) -> Dict:
    """One workload iteration in a fresh child process; returns its record."""
    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir),
             str(out), repr(spawned_at), "1" if trace else "0"],
            cwd=ROOT, env=_child_env(workdir), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- correctness ---------------------------------------------------------- #

def count_mismatches(outputs: Dict, reference: Dict) -> int:
    """Items of ``outputs`` that differ from ``reference`` (exact equality).

    Floats are compared through their ``float.hex`` strings, so equality is
    bitwise.  Every missing or extra item counts as one mismatch.
    """
    failed = 0
    for key in ("surrogate_mse", "jobs", "cold_cells", "warm_cells"):
        got, ref = outputs.get(key, []), reference.get(key, [])
        failed += sum(1 for a, b in zip(got, ref) if a != b) + abs(len(got) - len(ref))
    return failed


def check(records: List[Dict], reference: Optional[Dict]):
    """``(attempted, failed)`` over all iterations of one run."""
    baseline = reference if reference is not None else records[0]["outputs"]
    attempted = failed = 0
    for record in records:
        outputs = record["outputs"]
        attempted += sum(len(outputs[k]) for k in ("surrogate_mse", "jobs", "cold_cells", "warm_cells"))
        attempted += len(record["deploy"])
        failed += count_mismatches(outputs, baseline)
        failed += sum(1 for _, status, _ in record["deploy"] if status != "ok")
        failed += record["nonfinite_jobs"]
    return attempted, failed


def load_references() -> Dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


# -- metrics -------------------------------------------------------------- #

def end_to_end(records: List[Dict]) -> Dict[str, float]:
    def med(values):
        return statistics.median(values)

    return {
        "wall_s": med(r["wall_s"] for r in records),
        "setup_s": med(r["setup_s"] for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "lane_epochs_per_s": med(r["epochs"] / r["wall_s"] for r in records),
        "mc_evals_per_s": med(r["mc_evals"] / r["wall_s"] for r in records),
        "surrogate_points_per_s": med(r["surrogate_points"] / r["wall_s"] for r in records),
    }


def simulated(records: List[Dict]) -> Dict[str, float]:
    """The simulated results of the first iteration (checked, not timed)."""
    outputs = records[0]["outputs"]
    cells = outputs["warm_cells"]
    mse = [float.fromhex(v) for v in outputs["surrogate_mse"]]
    dv = [d for _, _, d in records[0]["deploy"] if d is not None]
    return {
        "table2_mean_acc": sum(float.fromhex(c[4]) for c in cells) / len(cells),
        "table2_mean_std": sum(float.fromhex(c[5]) for c in cells) / len(cells),
        "deploy_max_dv_v": max(dv) if dv else float("nan"),
        "surrogate_test_mse": sum(mse) / len(mse),
    }


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _ in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    return values


def environment() -> Dict[str, str]:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {"nproc": str(os.cpu_count()), "platform": platform.platform(), "git_sha": sha}


# -- main ----------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one iteration and store its outputs as the seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    if args.record:
        record = run_iteration(args.workload, args.seed, False, 0)
        references = load_references()
        references.setdefault(args.workload, {})[str(args.seed)] = record["outputs"]
        REFERENCES.write_text(json.dumps(references, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"recorded {args.workload} seed {args.seed}")
        return 0

    reference = load_references().get(args.workload, {}).get(str(args.seed))
    untraced: List[Dict] = []
    traced: List[Dict] = []
    minimum = 2 if args.trace else 3
    start = time.monotonic()
    index = 0
    while (time.monotonic() - start < args.seconds
           or len(untraced) < minimum or (args.trace and len(traced) < minimum)):
        as_traced = bool(args.trace) and index % 2 == 1
        (traced if as_traced else untraced).append(
            run_iteration(args.workload, args.seed, as_traced, index))
        index += 1

    records = untraced + traced
    attempted, failed = check(records, reference)
    if args.trace:
        metrics, units = per_layer(untraced, traced), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(untraced), dict(END_TO_END)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "reference": "recorded" if reference is not None else "none (iterations checked against each other)",
        "error_rate": failed / attempted,
        "simulated": simulated(records),
        "stages_s": {k: statistics.median(r[k] for r in untraced)
                     for k in ("surrogate_s", "cold_s", "warm_s", "wall_s")},
        "env": {**environment(), **records[0]["env"]},
        "metrics": metrics,
        "records": [{k: v for k, v in r.items() if k != "outputs"} for r in records],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(info))

    print(f"workload {args.workload}  seed {args.seed}  iterations {len(untraced)} untraced"
          f" + {len(traced)} traced  reference: {info['reference']}")
    print(f"env: {json.dumps(info['env'], sort_keys=True)}")
    print(f"stage medians (s): {json.dumps({k: round(v, 4) for k, v in info['stages_s'].items()})}")
    for name, value in info["simulated"].items():
        print(f"  {name:<48} {value!r}")
    print(f"  {'error_rate':<48} {info['error_rate']!r} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name:<48} {value!r} {units[name]}")
    print(f"results: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
