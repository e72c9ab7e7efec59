"""One iteration of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS pinned to one thread.
Measures its own set-up (process start to the first call into the
program), runs the surrogate / table2-cold / table2-warm stages, and
writes timings, counts and outputs as JSON to OUT.

Usage: python3 perfbench/worker.py WORKLOAD SEED WORKDIR OUT SPAWNED_AT TRACE
"""

from __future__ import annotations

import json
import math
import re
import resource
import sys
import time
from pathlib import Path

# run_table2_parallel reports each design's deploy verification only through
# its progress callback, so the status and divergence are read from there.
_DEPLOY_LINE = re.compile(r"deploy-verify (?P<what>.*?)(?: @ \S+)?: (?P<status>ok|FAILED|error)"
                          r"(?:.*max \|Δv\| = (?P<dv>\S+) V)?")


def _cells(results):
    return [[c.dataset, c.setup.label, c.eps_test, c.scenario, c.mean.hex(), c.std.hex()]
            for c in results]


def _deploy(lines):
    out = []
    for line in lines:
        match = _DEPLOY_LINE.search(line)
        if match:
            dv = match.group("dv")
            out.append([match.group("what"), match.group("status"),
                        float(dv) if dv is not None else None])
    return out


def main(argv) -> int:
    name, seed, workdir, out, spawned_at, trace = argv
    seed, spawned_at, trace = int(seed), float(spawned_at), trace == "1"
    workdir = Path(workdir)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import DEPLOY_TILE, WORKLOADS

    import repro
    from repro.experiments import ResultCache, RunJournal, run_table2_parallel
    from repro.surrogate import build_surrogate_bundle

    workload = WORKLOADS[name]
    cache = ResultCache(workdir / "cache")
    artifacts = workdir / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - spawned_at

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    progress = []
    try:
        t0 = time.perf_counter()
        bundle = build_surrogate_bundle(
            n_points=workload.surrogate_points, max_epochs=workload.surrogate_epochs,
            patience=workload.surrogate_epochs, seed=seed, cache_dir=artifacts,
        )
        t1 = time.perf_counter()
        cold = run_table2_parallel(
            list(workload.datasets), workload.config(seed, warm=False), surrogates=bundle,
            workers=1, cache=cache, progress=progress.append, lane_width=workload.lane_width,
            scenarios=workload.scenarios, deploy_tile=DEPLOY_TILE,
        )
        t2 = time.perf_counter()
        warm = run_table2_parallel(
            list(workload.datasets), workload.config(seed, warm=True), surrogates=bundle,
            workers=1, cache=cache, progress=progress.append, lane_width=workload.lane_width,
            scenarios=workload.scenarios, deploy_tile=DEPLOY_TILE,
        )
        t3 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    stage = {"surrogate_s": t1 - t0, "cold_s": t2 - t1, "warm_s": t3 - t2, "wall_s": t3 - t0}

    # Everything below is untimed bookkeeping.
    from repro.datasets import load_splits
    from repro.experiments.jobs import SPLIT_SEED

    import numpy

    trained = [j for j in RunJournal.read(cache.journal_path) if not j["cache_hit"]]
    jobs = [[j["dataset"], j["learnable"], j["variation_aware"], j["train_eps"], j["seed"],
             j["scenario"], float(j["val_loss"]).hex(), j["epochs_run"]] for j in trained]
    config = workload.config(seed, warm=True)
    test_rows = {d: len(load_splits(d, seed=SPLIT_SEED, max_train=config.max_train).x_test)
                 for d in workload.datasets}
    mc_evals = sum(config.n_test * test_rows[c.dataset] for c in warm)

    result = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        **stage,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epochs": sum(j[-1] for j in jobs),
        "mc_evals": mc_evals,
        "surrogate_points": 2 * workload.surrogate_points,
        "outputs": {
            "surrogate_mse": [bundle.ptanh.test_mse.hex(), bundle.negweight.test_mse.hex()],
            "jobs": jobs,
            "cold_cells": _cells(cold),
            "warm_cells": _cells(warm),
        },
        "deploy": _deploy(progress),
        "nonfinite_jobs": sum(1 for j in trained if not _finite(j, cache, numpy)),
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "blas": _blas(numpy), "repro": getattr(repro, "__version__", "unknown")},
    }
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer, stage["wall_s"])
        result["spans"] = tracer.spans
    Path(out).write_text(json.dumps(result))
    return 0


def _finite(job, cache, numpy) -> bool:
    """Whether a trained job's validation loss and stored parameters are finite."""
    if not math.isfinite(job["val_loss"]):
        return False
    with numpy.load(cache.design_path(job["digest"])) as arrays:
        return all(numpy.isfinite(arrays[k]).all() for k in arrays.files
                   if numpy.issubdtype(arrays[k].dtype, numpy.number))


def _blas(numpy) -> str:
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
