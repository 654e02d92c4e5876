"""rosselab benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload acceptance-sweep --seed 123 --seconds 35 --trace 0

Workloads (see ``workloads.py``):

* ``acceptance-sweep`` - ``harness.epsilon_sweep`` on configs/acceptance.ini
  at 1/50 of the fixture's sample counts (default seed 123);
* ``martingale`` - ``correctors.martingale_residual`` on the criterion-6
  fixture with 500 samples (default seed 20260823);
* ``cli-fine-grid`` - ``rosselab.cli.main`` running noise-info, verify,
  run-kinetic, run-spde and rates on benchmarks/fine_grid.ini (default seed
  123).

The package is imported from ``src/`` next to this directory.  Set-up
(re-importing the rosselab modules, parsing the config, building the fixture
and its noise statistics) runs nine times and ``setup_s`` is the median.
Then operation batches run back to back for ``--seconds`` (at least two);
``wall_s`` and ``cpu_s`` are the medians of the batches' wall and process CPU
times and ``peak_rss_mb`` is the process peak.  Each batch is checked (see
``workloads.py``) and must reproduce the first batch's outputs bit for bit.

``--trace 1`` runs untraced batches for a third of the time, then traced
batches (set-up plus operation) for the rest, wrapping the package's public
functions from ``tracing.py``.  It reports the per-layer metrics: time
medians over traced batches, counts that must repeat exactly, and the
tracing overhead (median traced minus median untraced batch).  Traced
outputs must equal untraced outputs bit for bit.

Every run writes ``benchmarks/results/<workload>-seed<n>-trace<t>.json``
with the environment, the raw samples, the checks and, when traced, the
spans.  The last line of standard output is the JSON result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
MIN_BATCHES = 2


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads(nproc: int) -> dict[str, int]:
    """Cap the BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        caps[var] = max(1, min(current, nproc))
        os.environ[var] = str(caps[var])
    return caps


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_package() -> SimpleNamespace:
    """Import the rosselab modules afresh from src/."""
    from tracing import LAYERS

    for name in [m for m in sys.modules if m == "rosselab" or m.startswith("rosselab.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(**{
        layer: importlib.import_module(f"rosselab.{layer}") for layer in LAYERS
    })
    origin = Path(pkg.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"rosselab was imported from {origin}, not from {SRC}")
    return pkg


def timed_setups(workload):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = load_package()
        inputs = workload.setup(pkg)
        times.append(time.perf_counter() - start)
    return pkg, inputs, times


def measure(batch, seconds: float, min_batches: int) -> list[dict]:
    """Run batches until the next one would end after ``seconds``."""
    samples = []
    start = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ops, checks = batch()
        samples.append({
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "operations": [op._asdict() for op in ops],
            "checks": checks,
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= min_batches and elapsed + typical > seconds:
            return samples


def count_failures(samples: list[dict], reference: list[dict]) -> int:
    """Operations that failed their check or differ from the reference batch."""
    failed = 0
    for sample in samples:
        ops = sample["operations"]
        if len(ops) != len(reference):
            failed += len(ops)
            continue
        for op, ref in zip(ops, reference):
            if not op["ok"] or op["digest"] != ref["digest"]:
                op["ok"] = False
                failed += 1
    return failed


def traced_batches(workload, pkg, seed, seconds, per_layer):
    """Traced set-up plus operation per batch; per-layer figures and checks."""
    from tracing import Tracer, layer_metrics
    from workloads import run_batch

    tracer = Tracer()
    per_batch = []
    spans = []

    def batch():
        tracer.reset()
        run_id = len(per_batch)
        with tracer.root("bench.setup", run_id):
            inputs = workload.setup(pkg)
        with tracer.root("bench.op", run_id):
            result = run_batch(workload, pkg, inputs, seed)
        per_batch.append(layer_metrics(tracer))
        spans.extend(tracer.spans)
        return result

    with tracer.installed(pkg):
        samples = measure(batch, seconds, MIN_BATCHES)
    metrics = {}
    unstable = []
    for name, unit in per_layer.items():
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_batch]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    return samples, metrics, unstable, per_batch, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("acceptance-sweep", "martingale", "cli-fine-grid"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed the repository uses)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = usable_cpus()
    caps = cap_threads(nproc)
    if not (SRC / "rosselab" / "__init__.py").is_file():
        print(f"benchmark: no rosselab package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np
    from workloads import WORKLOADS, run_batch

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    begin = time.perf_counter()
    pkg, inputs, setup_times = timed_setups(workload)

    def untraced():
        return run_batch(workload, pkg, inputs, seed)

    result_file = {
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": nproc,
            "cpu_model": cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(),
            "thread_caps": caps,
            "load": "one process, batches run back to back",
        },
        "setup_s_samples": setup_times,
    }
    if args.trace:
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        samples = measure(untraced, args.seconds / 3.0, 1)
        reference = samples[0]["operations"]
        remaining = args.seconds - (time.perf_counter() - begin)
        traced, metrics, unstable, per_batch, spans = traced_batches(
            workload, pkg, seed, remaining, per_layer)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            s["wall_s"] for s in samples)
        failed = count_failures(samples + traced, reference)
        samples = samples + traced
        units = per_layer
        result_file.update(per_batch_metrics=per_batch, unstable_counts=unstable,
                           spans=[dict(zip(("id", "name", "start", "end", "parent", "run_id"),
                                           span)) for span in spans])
    else:
        samples = measure(untraced, args.seconds, MIN_BATCHES)
        failed = count_failures(samples, samples[0]["operations"])
        unstable = []
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = sum(len(s["operations"]) for s in samples)
    result = {
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result_file.update(samples=samples, ops_failed_frac=failed / attempted, result=result)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result_file, indent=1) + "\n")

    print(f"{workload.name} seed {seed}: {len(samples)} batches, "
          f"{attempted} operations, {failed} failed; results in {path.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':32s} {failed / attempted:>14.6g} 1")
    if unstable:
        print(f"  counts differing between traced batches: {', '.join(unstable)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
