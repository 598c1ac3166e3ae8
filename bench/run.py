"""lapctrl benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload verify_sweep|check_stream|order_ladder \
        --seed N --seconds S --trace 0|1

Run from anywhere; lapctrl is imported from ``src/`` next to this
directory. A run's inputs are a fixed set of batches made from the seed
(``SET_BATCHES`` in workloads.py); the run cycles through them in passes
until ``--seconds`` have passed and each has run once. Each pass runs in a
fresh worker interpreter (worker.py), so nothing lapctrl keeps carries from
one pass to the next. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit); the line before it describes the machine, the inputs and the
samples. Times other than setup_s are reported at a fixed reference
machine speed (see ``workloads.SpeedGauge``); the info line also gives the
raw wall total. With ``--trace 0`` the metrics are the end-to-end ones.
With ``--trace 1`` the run is split in two halves, untraced then traced,
and the metrics are the per-layer ones plus the tracing overhead (traced
figures minus untraced ones). Per-layer times are rescaled like the
end-to-end ones. Spans go to ``bench/out/``.

An operation fails when it raises or a verdict contradicts the reference;
failures are counted, never hidden. ``attempted`` and ``failed`` count the
distinct operations of the input set, so the same seed gives the same
counts however many passes fit in the run; ladder rungs climbed past the
fixed ones depend on timing and are reported on the info line instead.
``correct`` is false when any failure is not a documented one, or when an
operation's verdict differs between passes. The exit code is non-zero only
for a fault of the harness itself, such as lapctrl not being found.
"""

from __future__ import annotations

import os
import sys

# Single client: pin BLAS and OpenMP pools (at most nproc) before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import TRACED_NAMES, TraceSummary  # noqa: E402
from worker import HERE, SRC, HarnessFault, load_lapctrl  # noqa: E402
from workloads import WORKLOADS, OrderLadder, percentile  # noqa: E402

ROOT = HERE.parent
SETUP_PER_PASS = 3
WORKER_TIMEOUT_S = 120
IMPORT_PROBE = ("import time; t = time.perf_counter(); import lapctrl.cli; "
                "print(time.perf_counter() - t)")
# Orders at which the ladder's per-call times are reported, per function;
# each is at or below the function's core order, so every pass reaches it.
LADDER_ORDERS = {
    "controllability.kalman_rank_exact": (16, 32, 48, 56),
    "controllability.pbh_verdict": (16, 32, 48, 64, 96),
    "controllability.gramian_check": (16, 32, 48, 64),
    "spectral.eig_sym": (16, 32, 48, 64, 96),
}
LADDER_FUNCTIONS = {m: f"{mod}.{fn}" for m, (mod, fn, _) in OrderLadder.METHODS.items()}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform()}


def import_seconds() -> float:
    """numpy plus lapctrl import time in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout)


def setup_time(workload) -> float:
    """Import time plus generation of the first input batch.

    Wall time, not rescaled: import time barely follows the speed gauge's
    phases, so rescaling it would add noise rather than remove it.
    """
    t_import = import_seconds()
    t0 = time.perf_counter()
    type(workload)(workload.lp, workload.seed).generate(0)
    return t_import + time.perf_counter() - t0


def run_batch(workload, i: int, trace: bool, climb: bool) -> dict:
    """Generate the inputs of pass i here (input batch i % SET_BATCHES) and
    run the pass in a fresh worker interpreter."""
    job = {"workload": workload.name, "seed": workload.seed, "batch": i,
           "inputs": workload.generate(i % workload.SET_BATCHES), "trace": trace,
           "climb": climb}
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                              input=pickle.dumps(job), capture_output=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessFault(f"batch {i} worker ran over {WORKER_TIMEOUT_S} s") from exc
    if done.returncode:
        raise HarnessFault(f"batch {i} worker exited with {done.returncode}: "
                           f"{done.stderr.decode(errors='replace')[-2000:]}")
    return pickle.loads(done.stdout)


def measure(workload, seconds: float, first: int = 0, trace: bool = False,
            climb: bool = False, setup_times: list[float] | None = None) -> list[dict]:
    """Whole passes, numbered from first, until the run length is used and,
    counting from pass 0, every input batch has run once; at least one.

    With setup_times, SETUP_PER_PASS set-up times are appended to it before
    each pass, so that their median samples the machine across the run.
    """
    results = []
    start = time.perf_counter()
    while (not results or first + len(results) < workload.SET_BATCHES
           or time.perf_counter() - start < seconds):
        if setup_times is not None:
            setup_times.extend(setup_time(workload) for _ in range(SETUP_PER_PASS))
        results.append(run_batch(workload, first + len(results), trace, climb))
    return results


def operations(results) -> list[dict]:
    return [op for result in results for op in result["ops"]]


def checked(workload, ops) -> tuple[list[dict], list[str]]:
    """The run's fixed operations, one record per input batch and id, and a
    message for each repeat whose verdict differs from the first run of the
    same operation. Ladder rungs climbed past the core orders are left out."""
    first, changed = {}, []
    for op in ops:
        if not op.get("core", True):
            continue
        key = (op["batch"] % workload.SET_BATCHES, op["id"])
        seen = first.setdefault(key, op)
        if (seen["failed"], seen.get("wrong")) != (op["failed"], op.get("wrong")):
            changed.append(f"input batch {key[0]} op {key[1]}: verdict changed between passes")
    return list(first.values()), changed


def timing(workload, ops) -> dict[str, tuple[float, str]]:
    rate, latencies = workload.rate_and_latency(ops)
    return {"ops_per_s": (rate, "1/s"),
            "op_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
            "op_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms")}


def end_to_end(workload, results, setup_s: float) -> dict[str, tuple[float, str]]:
    ops = operations(results)
    fixed, _ = checked(workload, ops)
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
               "error_rate": (sum(op["failed"] for op in fixed)
                              / sum(op["decisions"] for op in fixed), "fraction")}
    metrics.update(timing(workload, ops))
    return metrics


def per_layer(workload, untraced, traced, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the untraced and traced operations and the
    traced batches' spans, and per ladder method the order at 1 s with its
    saturation flag."""
    summary = tracer.summary()
    metrics = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = (summary[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (summary[f"{name}.self_s"], "s")
    for name in ("controllability.kalman_rank_exact", "spectral.eig_sym"):
        metrics[f"{name}.distinct_frac"] = (summary[f"{name}.distinct_frac"], "fraction")
    for method in ("pbh", "gramian"):
        metrics[f"{LADDER_FUNCTIONS[method]}.wrong"] = (
            sum(method in op.get("wrong", ()) for op in traced), "count")
    ladder = workload.name == "order_ladder"
    for name, orders in LADDER_ORDERS.items():
        for n in orders:
            times = tracer.durations(name, n) if ladder else []
            metrics[f"{name}.n{n}_s"] = (statistics.median(times) if times else 0.0, "s")
    plain, with_spans = timing(workload, untraced), timing(workload, traced)
    for key, (value, unit) in with_spans.items():
        metrics[f"trace.overhead.{key}"] = (value - plain[key][0], unit)
    lapctrl_time = sum(op["latency"] for op in traced)
    metrics["trace.coverage"] = (sum(summary[f"{n}.self_s"] for n in TRACED_NAMES)
                                 / lapctrl_time if lapctrl_time else 0.0, "fraction")
    orders = workload.orders_at_limit(untraced) if ladder else {}
    for method, name in LADDER_FUNCTIONS.items():
        metrics[f"{name}.order_at_1s"] = (orders.get(method, (0.0, False))[0], "vertices")
    return metrics, {m: {"order": o, "saturated": s} for m, (o, s) in orders.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lapctrl = load_lapctrl()
    workload = WORKLOADS[args.workload](lapctrl, args.seed)
    ladder = args.workload == "order_ladder"
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(),
            "clients": "one closed-loop client and no queue, so time waiting is zero"}

    if args.trace:
        # The untraced half of the ladder also climbs past the core rungs.
        untraced = measure(workload, args.seconds / 2, climb=ladder)
        traced = measure(workload, args.seconds / 2, first=len(untraced), trace=True)
        results = untraced + traced
        tracer = TraceSummary([r["trace"] for r in traced])
        metrics, info["order_at_1s"] = per_layer(workload, operations(untraced),
                                                 operations(traced), tracer)
        spans_file = HERE / "out" / f"spans-{args.workload}.json"
        tracer.dump(spans_file)
        info["spans"] = {"file": str(spans_file.relative_to(ROOT)), "count": tracer.count()}
    else:
        setup_times = []
        results = measure(workload, args.seconds, setup_times=setup_times)
        metrics = end_to_end(workload, results, statistics.median(setup_times))

    ops = operations(results)
    _, latencies = workload.rate_and_latency(ops)
    fixed, changed = checked(workload, ops)
    unexpected = [msg for op in ops for msg in op["unexpected"]] + changed
    info["inputs"] = workload.properties(ops)
    p90 = percentile(latencies, 0.9)
    wall = sum(op["wall"] for op in ops)
    if ladder:
        climbed = [op for op in ops if not op["core"]]
        info["climbed_rungs"] = {"calls": len(climbed),
                                 "failed": sum(op["failed"] for op in climbed)}
    info["samples"] = {"passes": len(results), "input_batches": workload.SET_BATCHES,
                       "latency_samples": len(latencies),
                       "wall_s": wall, "reference_s": sum(op["latency"] for op in ops),
                       "beyond_p90": sum(t > p90 for t in latencies)}
    info["unexpected_failures"] = unexpected[:20]
    print(json.dumps(info))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(op["decisions"] for op in fixed),
        "failed": sum(op["failed"] for op in fixed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessFault as exc:
        print(f"harness fault: {exc}", file=sys.stderr)
        sys.exit(2)
