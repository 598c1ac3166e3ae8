"""Run one batch of a workload in a fresh interpreter.

    python3 bench/worker.py < job.pickle > result.pickle

Every batch (one verify pass, one block of check queries, one ladder pass)
gets its own interpreter, so nothing lapctrl keeps between calls, such as a
cache of per-graph results, carries from one batch to the next: only reuse
within a batch can pay off, as within one ``lapctrl verify`` run. The
operations still call lapctrl in-process. The job is a pickled dict with
the workload, seed, batch index, inputs and trace flag; the pickled result
holds the operation records, the batch's spans when traced, and the peak
resident memory of the worker.
"""

from __future__ import annotations

import pickle
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class HarnessFault(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def load_lapctrl():
    if not (SRC / "lapctrl" / "__init__.py").is_file():
        raise HarnessFault(f"lapctrl sources not found under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import lapctrl
    import lapctrl.cli  # noqa: F401  (the tracer rebinds names inside it)
    if Path(lapctrl.__file__).resolve().parent != SRC / "lapctrl":
        raise HarnessFault(f"imported lapctrl from {lapctrl.__file__}, not {SRC}")
    return lapctrl


def execute(job: dict, lapctrl) -> dict:
    """Run one batch in this interpreter and return its records."""
    from tracing import Tracer
    from workloads import WORKLOADS, SpeedGauge

    workload = WORKLOADS[job["workload"]](lapctrl, job["seed"])
    workload.climb = job["climb"]
    gauge = SpeedGauge()
    tracer = Tracer(gauge) if job["trace"] else None
    if tracer:
        tracer.install()
    try:
        with gauge.running():
            ops = workload.batch(job["batch"], job["inputs"], gauge)
    finally:
        if tracer:
            tracer.uninstall()
    for op in ops:
        op["latency"] = gauge.reference_time(op)
    return {"ops": ops, "trace": tracer.finish() if tracer else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


if __name__ == "__main__":
    job = pickle.load(sys.stdin.buffer)
    result = execute(job, load_lapctrl())
    sys.stdout.buffer.write(pickle.dumps(result))
