"""The three workloads. Each drives lapctrl's public API from outside.

A workload runs in batches: one verify pass, one block of check queries, or
one ladder pass. A run's inputs are a fixed set of SET_BATCHES input
batches; input batch i comes from a generator seeded with the workload seed
and i alone, so the set does not depend on timing. Pass p of a run uses
input batch p % SET_BATCHES, so the same seed always checks the same
operations, however many passes fit in the run. ``generate`` runs in the
benchmark's main process and ``batch`` in a fresh worker interpreter (see
worker.py). Every operation yields a record dict with its timing, an ``id``
that is unique within its input batch, the decisions it made, how many of
those failed, which failures were not the documented ones
(``unexpected``), and whether it raised. An operation that raised keeps its
measured time but is left out of the rate and the latency samples, so a
build that fails fast does not read as fast.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import math
import random
import signal
import statistics
import sys
import time

import numpy as np

from reference import (graph_json, has_repeated_eigenvalue, input_column,
                       krylov_rank, laplacian, random_connected)

SUITES = ("composite", "cj", "chain", "lemma6", "lemma7", "majorization", "figure1")
SUITE_CASES = {"composite": 1122, "cj": 210, "chain": 246, "lemma6": 60,
               "lemma7": 120, "majorization": 100, "figure1": 17}
# Known-false lemma cases documented in the README: these chains collapse
# into paths whose cosine eigenvectors vanish at a tracked entry.
KNOWN_FALSE = frozenset({
    "lemma6 c=3 k2=2 links=DT", "lemma6 c=3 k2=2 links=TT",
    "lemma6 c=4 k2=2 links=DDT", "lemma6 c=4 k2=2 links=DTD",
    "lemma6 c=4 k2=2 links=TDT", "lemma6 c=4 k2=2 links=TTD",
})


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def timed(gauge, fn, *args):
    """Call fn(*args); return (result or None, exception or None, timing).
    The time is measured whether or not the call raises."""
    mark = gauge.mark()
    try:
        result, exc = fn(*args), None
    except Exception as error:  # counted by the caller
        result, exc = None, error
    return result, exc, gauge.since(mark)


def call_cli(cli, argv, gauge, stdin_text=""):
    """Run lapctrl.cli.main in-process; return (exit code, exception,
    stdout, timing).

    main is looked up on the module at each call, so a traced rebinding is
    used when installed.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, exc, timing = timed(gauge, lambda: cli.main(argv))
    finally:
        sys.stdin = saved
    return rc, exc, out.getvalue(), timing


class SpeedGauge:
    """Machine speed, sampled every INTERVAL_S with a fixed calibration loop.

    On shared cores the same CPU-bound code runs up to 1.7x slower in
    phases lasting from a few tenths of a second to minutes, whatever this
    process does. While ``running``, a timer signal runs the loop in the
    main thread every INTERVAL_S, often enough to follow the short phases;
    time spent in it is left out of operation times. An
    operation's reference time is its wall time scaled by NOMINAL_S over
    the mean loop time from the last sample before it to the first after
    it: its time on a machine where the loop takes NOMINAL_S. The loop
    mixes interpreter arithmetic with small numpy vector updates, as
    lapctrl does.
    """

    NOMINAL_S = 0.001
    INTERVAL_S = 0.02

    def __init__(self) -> None:
        self._base = np.linspace(0.0, 1.0, 32)
        self.samples = [self.sample()]
        self.stolen = 0.0

    def sample(self) -> float:
        a, acc = self._base.copy(), 0
        t0 = time.perf_counter()
        for i in range(400):
            acc += i * i % 7
            a = a * 0.5 + 0.5
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.sample())
        self.stolen += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(self.sample())

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.stolen, len(self.samples)

    def since(self, mark) -> dict:
        """Wall time since mark, less calibration time, and the sample span."""
        t0, stolen0, first = mark
        stolen = self.stolen - stolen0
        return {"wall": time.perf_counter() - t0 - stolen, "stolen": stolen,
                "samples": (first - 1, len(self.samples))}

    def reference_time(self, op: dict) -> float:
        first, last = op["samples"]
        return op["wall"] * self.NOMINAL_S / statistics.fmean(self.samples[first:last + 1])


def _order_histogram(orders) -> dict[str, int]:
    return {str(n): c for n, c in sorted(collections.Counter(orders).items())}


def _whole_passes(ops, key=lambda op: True):
    """Per batch, the latency summed over the ops that key selects and the
    decisions they made, for batches in which none of them raised; all
    batches if every one has an op that raised (the run is then marked
    incorrect anyway)."""
    passes: dict[int, list] = {}
    for op in ops:
        if key(op):
            entry = passes.setdefault(op["batch"], [0.0, 0, False])
            entry[0] += op["latency"]
            entry[1] += op["decisions"]
            entry[2] |= op["raised"]
    whole = [p for p in passes.values() if not p[2]] or list(passes.values())
    return [p[0] for p in whole], sum(p[1] for p in whole)


class Workload:
    name = ""
    SET_BATCHES = 1  # input batches in a run's fixed input set

    def __init__(self, lapctrl, seed: int) -> None:
        self.lp = lapctrl
        self.seed = seed

    @staticmethod
    def record(timing, decisions, failed, unexpected, raised=False, **extra) -> dict:
        """One operation; timing is the gauge's reading for it. The worker
        adds the reference-speed ``latency``."""
        return {**timing, "decisions": decisions, "failed": failed,
                "unexpected": unexpected, "raised": raised, **extra}

    def generate(self, i: int):
        """Inputs of input batch i; runs in the main process."""
        raise NotImplementedError

    def batch(self, i: int, inputs, gauge) -> list[dict]:
        """Run pass i on its inputs in a worker, timing with gauge."""
        raise NotImplementedError

    def rate_and_latency(self, ops) -> tuple[float, list[float]]:
        """Decisions per second of lapctrl time, and the latency samples."""
        raise NotImplementedError

    def properties(self, ops) -> dict:
        raise NotImplementedError


class VerifySweep(Workload):
    """One pass runs all seven verify suites through lapctrl.cli.main."""

    name = "verify_sweep"

    def generate(self, i):
        return [["verify", s] + (["--seed", str(self.seed)] if s == "majorization" else [])
                for s in SUITES]

    def batch(self, i, inputs, gauge):
        ops = []
        for argv in inputs:
            suite = argv[1]
            total = SUITE_CASES[suite]
            rc, exc, out, timing = call_cli(self.lp.cli, argv, gauge)
            failure = {"batch": i, "id": suite, "suite": suite, "oracle_cases": 0,
                       "oracle_false": 0}
            if exc is not None:
                ops.append(self.record(timing, total, total, [f"{suite}: raised {exc!r}"],
                                       raised=True, **failure))
                continue
            try:
                lines = [json.loads(line) for line in out.splitlines()]
                cases, summary = lines[:-1], lines[-1]
            except (ValueError, IndexError):
                ops.append(self.record(timing, total, total,
                                       [f"{suite}: exit code {rc}, output {out[:200]!r}"],
                                       **failure))
                continue
            failing = {c["case"] for c in cases if not c["pass"]}
            expected = KNOWN_FALSE if suite == "lemma6" else frozenset()
            unexpected = []
            if len(cases) != SUITE_CASES[suite]:
                unexpected.append(f"{suite}: {len(cases)} cases, expected {SUITE_CASES[suite]}")
            if failing != expected:
                unexpected.append(f"{suite}: new failures {sorted(failing - expected)}, "
                                  f"missing known failures {sorted(expected - failing)}")
            if summary != {"suite": suite, "cases": len(cases), "failures": len(failing)}:
                unexpected.append(f"{suite}: summary {summary} disagrees with the case lines")
            if rc != (1 if failing else 0):
                unexpected.append(f"{suite}: exit code {rc}")
            oracle = [c["detail"] for c in cases if "oracle=" in c["detail"]]
            ops.append(self.record(timing, len(cases), len(failing), unexpected, batch=i,
                                   id=suite, suite=suite, oracle_cases=len(oracle),
                                   oracle_false=sum("oracle=False" in d for d in oracle)))
        return ops

    def rate_and_latency(self, ops):
        passes, decisions = _whole_passes(ops)
        return decisions / sum(passes), passes

    def properties(self, ops):
        first = min(op["batch"] for op in ops)
        one_pass = [op for op in ops if op["batch"] == first]
        oracle = sum(op["oracle_cases"] for op in one_pass)
        return {
            "cases_per_suite": {op["suite"]: op["decisions"] for op in one_pass},
            "failing_cases_per_pass": sum(op["failed"] for op in one_pass),
            "oracle_cases": oracle,
            "uncontrollable_share_of_oracle_cases":
                sum(op["oracle_false"] for op in one_pass) / oracle if oracle else 0.0,
            "latency_unit": "one pass over all seven suites",
        }


def _spread(orders, i, count):
    """The i-th of count entries spaced evenly over orders, first to last."""
    return orders[round(i * (len(orders) - 1) / max(count - 1, 1))]


def _antiregular(k):
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1) if i + j <= k + 1]


def _threshold(word):
    """Creation word over J/U; vertex t+1 joins all earlier vertices on J."""
    return [(u, t + 1) for t, tag in enumerate(word, start=1) if tag == "J"
            for u in range(1, t + 1)]


class CheckStream(Workload):
    """Closed loop, one client: `check - --input ... --method all` queries.

    The block's weights: the bulk is dense random connected graphs, one of
    each order 8..36 (29 queries), the kind of sample on which the
    cross-check's latency was first measured. Each graph family with
    a closed-form reference or repeated eigenvalues gets one query per
    block, so each of its code paths (the PBH early exit, multi-dimensional
    eigenspaces, the closed-form checks) shows in every block: an
    end-driven path P12..P18, a path at a random vertex, a composite, a
    chain, an antiregular, a threshold and a complete graph (7 queries).
    The weights are this choice, not a measured mix of users' queries; the
    info line reports the share of each kind. Over a run's SET_BATCHES
    blocks each family's order steps evenly through its range, smallest to
    largest (the end-driven path is P12, P14, P16, P18), so every run
    holds the same orders whatever the seed; the seed picks the graphs and
    the inputs.
    """

    name = "check_stream"
    SET_BATCHES = 4
    RANDOM_ORDERS = range(8, 37)
    PATH_END_ORDERS = range(12, 19)
    PATH_ORDERS = range(6, 21)
    COMPOSITE_ORDERS = ((2, 3), (3, 4), (4, 5), (5, 6), (6, 6))  # (structure, cell)
    CHAIN_SHAPES = ((2, 3), (2, 5), (3, 4), (3, 5))  # (blocks, block order)
    SMALL_ORDERS = range(6, 17)  # antiregular order, threshold creation word length
    COMPLETE_ORDERS = range(4, 13)
    FAMILIES = ("P", "AR", "K")

    def _family(self, kind, k):
        if kind == "P":
            return [(i, i + 1) for i in range(1, k)]
        if kind == "AR":
            return _antiregular(k)
        return list(itertools.combinations(range(1, k + 1), 2))

    def _graph(self, n, edges):
        return self.lp.Graph.from_edges(n, edges)

    def _composite(self, rng, k1, k2):
        lp = self.lp
        cell = self._graph(k2, self._family(rng.choice(("P", "AR")), k2))
        structure = self._graph(k1, self._family(rng.choice(self.FAMILIES), k1))
        spec = lp.CompositeSpec(structure=structure, cell=cell,
                                s=rng.choice(sorted(lp.controllable_vertices(cell))))
        verdict = lp.predict_composite(spec, rng.randint(1, k1))
        g = lp.composite(spec)
        return "composite", g.n, sorted(g.edges), [verdict.input_vertex], verdict.controllable

    def _chain(self, rng, c, k2):
        lp = self.lp
        spec = lp.ChainSpec(c=c, k2=k2, links=tuple(rng.choice("DT") for _ in range(c - 1)))
        free = k2 - 1 if spec.links[0] == "T" else k2
        bits = [0] * k2
        while not any(bits):
            bits = [rng.randint(0, 1) for _ in range(free)] + [0] * (k2 - free)
        g = lp.chain_antiregular(spec)
        inputs = [v + 1 for v, bit in enumerate(bits) if bit]
        verdict = lp.valid_chain_input(spec, input_column(g.n, inputs))
        return "chain", g.n, sorted(g.edges), inputs, verdict

    def generate(self, i):
        rng = random.Random(f"{self.seed}-check-{i}")
        slots = [("random", n, random_connected(n, rng), [rng.randint(1, n)], None)
                 for n in self.RANDOM_ORDERS]
        split = self.lp.path_split_controllable

        def pick(orders):
            return _spread(orders, i, self.SET_BATCHES)

        k = pick(self.PATH_END_ORDERS)
        slots.append(("path_end", k, self._family("P", k), [1], split(0, k - 1)))
        k = pick(self.PATH_ORDERS)
        v = rng.randint(1, k)
        slots.append(("path", k, self._family("P", k), [v], split(v - 1, k - v)))
        slots.append(self._composite(rng, *pick(self.COMPOSITE_ORDERS)))
        slots.append(self._chain(rng, *pick(self.CHAIN_SHAPES)))
        k = pick(self.SMALL_ORDERS)
        slots.append(("antiregular", k, _antiregular(k), [rng.randint(1, k)], None))
        length = pick(self.SMALL_ORDERS)
        word = "".join(rng.choice("JU") for _ in range(length - 1)) + "J"
        slots.append(("threshold", length + 1, _threshold(word),
                      [rng.randint(1, length + 1)], None))
        k = pick(self.COMPLETE_ORDERS)
        slots.append(("complete", k, self._family("K", k), [rng.randint(1, k)], None))
        queries = []
        for kind, n, edges, inputs, closed in slots:
            L = laplacian(n, edges)
            queries.append({
                "kind": kind, "n": n, "inputs": inputs, "closed": closed,
                "text": graph_json(n, edges),
                "rank": krylov_rank(L, input_column(n, inputs)),
                "repeated": has_repeated_eigenvalue(L),
            })
        return queries

    def batch(self, i, inputs, gauge):
        ops = []
        for k, q in enumerate(inputs):
            argv = ["check", "-", "--input", *map(str, q["inputs"]), "--method", "all"]
            n, truth = q["n"], q["rank"] == q["n"]
            props = {"batch": i, "id": k, "kind": q["kind"], "n": n,
                     "uncontrollable": not truth, "repeated": q["repeated"]}
            label = f"{q['kind']} n={n} input={q['inputs']}"
            rc, exc, out, timing = call_cli(self.lp.cli, argv, gauge, q["text"])
            if exc is not None:
                ops.append(self.record(timing, 1, 1, [f"{label}: raised {exc!r}"],
                                       raised=True, wrong=[], **props))
                continue
            try:
                payload = json.loads(out)
            except ValueError:
                ops.append(self.record(timing, 1, 1,
                                       [f"{label}: exit code {rc}, output {out[:200]!r}"],
                                       wrong=[], **props))
                continue
            ops.append(self._score(q, label, rc, timing, payload, truth, props))
        return ops

    def _score(self, q, label, rc, timing, payload, truth, props):
        exact = payload["exact"]
        unexpected = []
        if exact["rank"] != q["rank"] or exact["controllable"] != truth:
            unexpected.append(f"{label}: exact rank {exact['rank']}, reference {q['rank']}")
        if q["closed"] is not None and q["closed"] != truth:
            unexpected.append(f"{label}: closed form {q['closed']}, reference {truth}")
        wrong = [m for m in ("pbh", "gramian")
                 if payload[m]["controllable"] != exact["controllable"]]
        for m in wrong:
            # The Gramian's false "uncontrollable" is documented; nothing else is.
            if not (m == "gramian" and exact["controllable"]):
                unexpected.append(f"{label}: {m} says {payload[m]['controllable']}")
        agree = not wrong
        if payload.get("agree") != agree or rc != (0 if agree else 1):
            unexpected.append(f"{label}: agree={payload.get('agree')} exit code {rc}")
        failed = int(bool(wrong or unexpected))
        return self.record(timing, 1, failed, unexpected, wrong=wrong, **props)

    def rate_and_latency(self, ops):
        lat = [op["latency"] for op in ops if not op["raised"]] or [op["latency"] for op in ops]
        return len(lat) / sum(lat), lat

    def properties(self, ops):
        kinds = collections.Counter(op["kind"] for op in ops)
        return {
            "queries": len(ops),
            "kind_share": {k: c / len(ops) for k, c in sorted(kinds.items())},
            "order_histogram": _order_histogram(op["n"] for op in ops),
            "uncontrollable_share": sum(op["uncontrollable"] for op in ops) / len(ops),
            "repeated_eigenvalue_share": sum(op["repeated"] for op in ops) / len(ops),
            "latency_unit": "one check query",
        }


class OrderLadder(Workload):
    """Each method alone on seeded random connected graphs of rising order.

    A pass runs every rung up to each method's core order: that fixed work
    is what the rate and the pass latency measure. With ``climb`` set, a
    method then keeps climbing (up to 256) until its first call over 1 s at
    the gauge's reference speed, which locates the order where a call takes
    1 s.
    """

    name = "order_ladder"
    SET_BATCHES = 3
    RUNGS = (8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256)
    # method -> (module, function, core order)
    METHODS = {
        "exact": ("controllability", "kalman_rank_exact", 56),
        "pbh": ("controllability", "pbh_verdict", 96),
        "gramian": ("controllability", "gramian_check", 64),
    }
    LIMIT_S = 1.0
    climb = False

    def _rung(self, i, method, n):
        rng = random.Random(f"{self.seed}-ladder-{i}-{method}-{n}")
        L = laplacian(n, random_connected(n, rng))
        return L, input_column(n, [rng.randint(1, n)])

    def generate(self, i):
        return {(m, n): self._rung(i, m, n)
                for m, (_, _, core) in self.METHODS.items() for n in self.RUNGS if n <= core}

    def batch(self, i, inputs, gauge):
        ops = []
        for method, (mod, fn, core) in self.METHODS.items():
            func = getattr(getattr(self.lp, mod), fn)
            for n in self.RUNGS:
                if n > core and not (self.climb and not ops[-1]["raised"]
                                     and gauge.reference_time(ops[-1]) <= self.LIMIT_S):
                    break
                L, b = (inputs[method, n] if n <= core
                        else self._rung(i % self.SET_BATCHES, method, n))
                result, exc, timing = timed(gauge, func, L, b)
                ops.append(self._score(i, method, n, core, timing, result, exc, L, b))
        return ops

    def _score(self, i, method, n, core, timing, result, exc, L, b):
        rank = krylov_rank(L, b)
        truth = rank == n
        wrong, unexpected = False, []
        if exc is not None:
            unexpected.append(f"{method} n={n}: raised {exc!r}")
        elif method == "exact":
            wrong = result != rank
            if wrong:
                unexpected.append(f"exact n={n}: rank {result}, reference {rank}")
        else:
            wrong = result.controllable != truth
            if wrong and not (method == "gramian" and truth):
                unexpected.append(f"{method} n={n}: says {result.controllable}, "
                                  f"reference {truth}")
        return self.record(timing, 1, int(wrong or exc is not None), unexpected,
                           raised=exc is not None, id=f"{method} n={n}", method=method,
                           n=n, core=n <= core,
                           wrong=[method] if wrong else [], uncontrollable=not truth,
                           repeated=has_repeated_eigenvalue(L), batch=i)

    def rate_and_latency(self, ops):
        passes, calls = _whole_passes(ops, key=lambda op: op["core"])
        return calls / sum(passes), passes

    def orders_at_limit(self, ops) -> dict[str, tuple[float, bool]]:
        """Per method, from climbing passes: median over passes of the order
        where a call crosses 1 s, interpolated log-log between the rungs
        around it, and whether some pass stayed under 1 s up to its top rung
        (saturated)."""
        out = {}
        for method in self.METHODS:
            found, saturated = [], False
            for _, group in itertools.groupby(
                    (op for op in ops if op["method"] == method), key=lambda op: op["batch"]):
                rungs = [(op["n"], op["latency"]) for op in group if not op["raised"]]
                if not rungs:
                    continue
                cross = next((k for k, (_, t) in enumerate(rungs) if t > self.LIMIT_S), None)
                if cross is None:
                    saturated = True
                    found.append(float(rungs[-1][0]))
                elif cross == 0:
                    found.append(float(rungs[0][0]))
                else:
                    (n0, t0), (n1, t1) = rungs[cross - 1], rungs[cross]
                    frac = -math.log(t0) / (math.log(t1) - math.log(t0))
                    found.append(n0 * (n1 / n0) ** frac)
            out[method] = (statistics.median(found) if found else 0.0, saturated)
        return out

    def properties(self, ops):
        return {
            "calls": len(ops),
            "order_histogram": _order_histogram(op["n"] for op in ops),
            "uncontrollable_share": sum(op["uncontrollable"] for op in ops) / len(ops),
            "repeated_eigenvalue_share": sum(op["repeated"] for op in ops) / len(ops),
            "top_rung": {m: max(op["n"] for op in ops if op["method"] == m)
                         for m in self.METHODS},
            "latency_unit": "one pass over the core rungs of all three methods",
        }


WORKLOADS = {w.name: w for w in (VerifySweep, CheckStream, OrderLadder)}
