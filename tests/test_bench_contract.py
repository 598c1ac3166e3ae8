"""What the benchmark under bench/ needs of lapctrl, checked in seconds.

The benchmark traces lapctrl functions by (module, name) and hands the
deciders its own n-by-1 int64 input columns. Its smoke test takes minutes;
these tests read bench/ (changing nothing there) and fail as soon as a
traced name disappears or the input format the workloads use stops working.
"""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from lapctrl import (ChainSpec, chain_antiregular, gramian_check, kalman_rank_exact,
                     laplacian, pbh_verdict, valid_chain_input)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference():
    return _bench_module("reference")


def test_every_traced_function_resolves():
    traced = _bench_module("tracing").TRACED
    assert traced
    for mod, fn in traced:
        assert callable(getattr(importlib.import_module(f"lapctrl.{mod}"), fn)), (mod, fn)


def test_check_calls_each_decider_by_its_module_name(monkeypatch, tmp_path, capsys):
    # the tracer rebinds the names inside lapctrl.cli, so check must look its
    # deciders up there when it runs, not hold them from import time
    import lapctrl.cli as cli
    calls = []
    for name in ("exact_verdict", "pbh_verdict", "gramian_check"):
        def counting(L, b, _decide=getattr(cli, name), _name=name):
            calls.append(_name)
            return _decide(L, b)
        monkeypatch.setattr(cli, name, counting)
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert cli.main(["check", str(graph), "--input", "1", "--method", "all"]) == 0
    assert cli.main(["check", str(graph), "--input", "1"]) == 0
    capsys.readouterr()
    assert calls == ["exact_verdict", "pbh_verdict", "gramian_check", "pbh_verdict"]


def test_deciders_accept_the_benchmark_input_column(reference):
    spec = ChainSpec(c=2, k2=4, links=("D",))
    g = chain_antiregular(spec)
    L = laplacian(g)
    b = reference.input_column(g.n, [3])
    assert b.shape == (g.n, 1) and b.dtype.name == "int64"
    assert kalman_rank_exact(L, b) == g.n
    assert pbh_verdict(L, b).controllable
    assert gramian_check(L, b).method == "gramian"
    assert valid_chain_input(spec, b)


def test_exact_rank_matches_the_benchmark_reference(reference):
    rng = random.Random(7)
    for n in (5, 9, 14, 20):
        edges = reference.random_connected(n, rng)
        L = reference.laplacian(n, edges)
        for v in (1, rng.randint(1, n)):
            b = reference.input_column(n, [v])
            assert kalman_rank_exact(L, b) == reference.krylov_rank(L, b), (n, v)
