"""spanobj benchmark: one workload, one seed, metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``train-short``, ``long-passages`` and
``cli-pipeline``.  The corpus is generated from ``--seed``; the same seed
gives the same inputs and, because the package is deterministic, the same
outputs.

``--trace 0`` runs one untimed warm-up set-up and pass, then repeats
set-up plus a full pass of the workload until ``--seconds`` would be
exceeded (at least two timed passes), and reports the end-to-end metrics as
medians over the timed passes and set-ups, each scaled by the slowness of
the fixed reference computation timed around it (``reference.py``).
``--trace 1`` runs a traced set-up, a warm-up pass, alternating untraced
and traced passes for half of ``--seconds``, and the layer sweep, and
reports the per-layer metrics.
Every pass is checked; a failed check, or two passes whose output digests
differ, makes the run exit 1 with ``"correct": false``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is a record of the run: seed, versions, BLAS, thread
settings, CPU count, pass count, digest, the failure tags and the unscaled
medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_PASSES = 2
SETUP_LENGTH = 12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package():
    """Import spanobj from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "spanobj" / "__init__.py").is_file():
        raise SystemExit(f"spanobj sources not found under {src}")
    sys.path.insert(0, str(src))
    import spanobj

    if Path(spanobj.__file__).resolve().parent != (src / "spanobj").resolve():
        raise SystemExit(f"imported spanobj from {spanobj.__file__}, not from {src}")
    return spanobj


def _environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _measure(workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics as medians, scaled to the reference speed.

    Each set-up follows a reference sample at L=12 (``reference.py``), and
    each pass is followed by one at the workload's passage length.  A set-up
    is divided by the slowness of the sample before it, a pass by the mean
    slowness of the two around it, so the times read as seconds on the quiet
    machine the reference was calibrated on.  The unscaled medians and the
    slowness samples go to the run record.
    """
    # Imported here: it loads NumPy, which must come after main() pins BLAS threads.
    from reference import Reference

    # Set-up is corpus generation and encoding, Python work at any passage
    # length, which the L=12 reference tracks.
    before = Reference(SETUP_LENGTH)
    after = Reference(workload.passage_length)
    # The first set-up and pass in a process run slower (imports, allocator
    # and cache warm-up); they are checked like the others but not timed.
    before.sample()
    after.sample()
    inputs = workload.setup(seed)
    outcomes = [workload.run_once(inputs, workdir=str(OUT_DIR))]
    warm = len(outcomes)
    # Set-up is repeated before every timed pass rather than all at once, so
    # its samples see the same machine conditions as the passes.
    setups, setup_slowness, pass_slowness = [], [], []
    start = time.perf_counter()
    while True:
        k = before.sample()
        t = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - t)
        outcomes.append(workload.run_once(inputs, workdir=str(OUT_DIR)))
        setup_slowness.append(k)
        pass_slowness.append((k + after.sample()) / 2)
        timed = outcomes[warm:]
        elapsed = time.perf_counter() - start
        # Stop when one more iteration of average length would overrun.
        if len(timed) >= MIN_PASSES and elapsed * (1 + 1 / len(timed)) > seconds:
            break
    paired = list(zip(timed, pass_slowness))
    metrics = {
        "wall_s": (statistics.median(o.wall_s / k for o, k in paired), "s"),
        "setup_s": (statistics.median(s / k for s, k in zip(setups, setup_slowness)), "s"),
        "train_examples_per_s": (statistics.median(
            _rate(o.train_examples, o.train_s / k) for o, k in paired), "1/s"),
        "decode_examples_per_s": (statistics.median(
            _rate(o.decoded, o.decode_s / k) for o, k in paired), "1/s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "wall_s": statistics.median(o.wall_s for o in timed),
        "setup_s": statistics.median(setups),
        "slowness": statistics.median(pass_slowness),
        "setup_slowness_samples": setup_slowness,
        "pass_slowness_samples": pass_slowness,
    }
    return outcomes, metrics, raw


def _trace(workload, seed: int, seconds: float):
    """Traced run: per-layer metrics, counts, the sweep and the tracing overhead.

    Layer metrics come from the traced set-up and the first traced pass.
    Untraced and traced passes then alternate for half of ``seconds`` (at
    least two pairs), and ``trace.overhead`` compares their median walls.
    """
    from sweep import run_sweep

    tracer = spans.Tracer()
    tag = f"{workload.name}-seed{seed}"
    with tracer.tracing(f"{tag}-setup"):
        inputs = workload.setup(seed)
    warm = workload.run_once(inputs, workdir=str(OUT_DIR))
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds / 2:
        plain.append(workload.run_once(inputs, workdir=str(OUT_DIR)))
        recorder = spans.Tracer() if traced else tracer
        with recorder.tracing(f"{tag}-traced{len(traced)}"):
            traced.append(workload.run_once(inputs, tracer=recorder, workdir=str(OUT_DIR)))
    metrics = {name: (value, "s" if name.endswith("self_s") else "count")
               for name, value in spans.layer_metrics(tracer.spans, tracer.missing).items()}
    # Zero where the workload has no such call (no CLI outside cli-pipeline).
    values = dict.fromkeys(LAYER_COUNTS, 0)
    values.update(traced[0].counts)
    values.update(tracer.counters)
    materialized = values["decoding.spans_materialized"]
    values["decoding.prediction_yield"] = (
        values["decoding.predictions_returned"] / materialized if materialized else 0.0)
    values["trace.overhead"] = (statistics.median(o.wall_s for o in traced)
                                / statistics.median(o.wall_s for o in plain) - 1.0)
    values["error_rate"] = plain[0].ops.error_rate
    values["dev_em"] = plain[0].dev_em
    values["dev_cross_rate"] = plain[0].dev_cross_rate
    metrics.update((name, (values[name], unit)) for name, unit in LAYER_COUNTS.items())
    metrics.update((name, (value, "ms")) for name, value in run_sweep().items())
    tracer.write(OUT_DIR / f"spans-{tag}.jsonl.gz")
    return [warm, *plain, *traced], metrics, {}


# Traced-run metrics other than per-function self time and calls: name -> unit.
# The quality and failure figures come from the untraced pass of the traced run.
LAYER_COUNTS = {
    **{f"cli.{c}.wall_s": "s" for c in ("generate", "context", "train", "decode", "eval", "stats")},
    "cli.failed": "count",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "model.checkpoint_bytes": "bytes",
    "model.contexts_skipped": "count",
    "model.context_yield": "ratio",
    "decoding.spans_materialized": "count",
    "decoding.predictions_returned": "count",
    "decoding.prediction_yield": "ratio",
    "decoding.failed": "count",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
    "dev_em": "%",
    "dev_cross_rate": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One single-threaded client: pin BLAS before NumPy loads.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        outcomes, metrics, raw = _trace(workload, args.seed, args.seconds)
    else:
        outcomes, metrics, raw = _measure(workload, args.seed, args.seconds)

    problems = [p for o in outcomes for p in o.problems]
    digests = sorted({o.digest for o in outcomes})
    if len(digests) > 1:
        problems.append(f"passes with the same seed gave different outputs: {digests}")
    ops = outcomes[0].ops
    for o in outcomes[1:]:
        ops.merge(o.ops)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "passes": len(outcomes),
        "pass_wall_s": [o.wall_s for o in outcomes],
        "digest": digests[0],
        "failures": dict(ops.tags),
        "raw": raw,
        "problems": problems[:20],
        **_environment(args.seed),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
