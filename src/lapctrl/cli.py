"""Command-line surface: generate, decompose, check, interconnect, verify.

The ``verify`` verb runs the theorem-versus-oracle sweeps with their case
lists embedded in code, one JSON line per case, so a release binary can
re-certify itself without external data. Exit codes: 0 success, 1 a
verification or --expect failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np

from .graph_core import (Graph, conjugate, degree_sequence, gen_antiregular,
                         gen_complete, gen_path, gen_threshold, graph_from_json,
                         graph_to_dot, graph_to_json, laplacian,
                         random_connected_graph)
from .spectral import ConvergenceError, check_majorization, eig_sym
from .controllability import (Verdict, controllable_vertices, gramian_check,
                              input_vector, kalman_rank_exact, pbh_verdict)
from .compose import (ChainSpec, CompositeSpec, OutOfSupport, append_path,
                      chain_antiregular, composite, path_split_controllable,
                      predict_composite, valid_chain_input)

GAP_TOL = 1e-6         # spectrum counts as simple when adjacent gaps exceed this
ZERO_ENTRY_REL = 1e-8  # |v_i| > 1e-8 * ||v||_inf counts as a nonzero entry
DEFAULT_SEED = 2026

_FAMILY_RANGE = range(2, 6)


# ---------------------------------------------------------------------------
# verification sweeps (shared with the acceptance tests)
# ---------------------------------------------------------------------------

def _family_graphs() -> list[tuple[str, Graph]]:
    out = []
    for name, fn in (("P", gen_path), ("AR", gen_antiregular), ("K", gen_complete)):
        out.extend((f"{name}{k}", fn(k)) for k in _FAMILY_RANGE)
    return out


def _entries_nonzero(vec: np.ndarray, idx0: list[int]) -> bool:
    peak = float(np.max(np.abs(vec)))
    return all(abs(float(vec[i])) > ZERO_ENTRY_REL * peak for i in idx0)


def verify_composite() -> list[dict]:
    """Composite equivalence and simplicity, against the exact oracle.

    theorem4 cases: for every structure/cell pair over {P, AR, K : k in
    2..5}, every cell vertex s that controls the cell, and every structure
    vertex w, the predicted verdict must match exact Kalman on the
    composite at input (w-1)k2+s. theorem3 cases: whenever the structure
    has controllable vertices at all, the composite spectrum must be simple
    and every eigenvector must be nonzero at the composite-vertex indices
    of those structure positions.
    """
    cases = []
    graphs = _family_graphs()
    for cell_name, cell in graphs:
        for s in sorted(controllable_vertices(cell)):
            for struct_name, struct in graphs:
                spec = CompositeSpec(structure=struct, cell=cell, s=s)
                comp = composite(spec)
                Lc = laplacian(comp)
                k1, k2 = struct.n, cell.n
                for w in range(1, k1 + 1):
                    pred = predict_composite(spec, w)
                    idx = (w - 1) * k2 + s
                    oracle = kalman_rank_exact(Lc, input_vector(comp.n, [idx])) == comp.n
                    ok = pred.controllable == oracle and pred.input_vertex == idx
                    cases.append({
                        "case": f"theorem4 structure={struct_name} cell={cell_name} s={s} w={w}",
                        "pass": bool(ok),
                        "detail": f"predicted={pred.controllable} oracle={oracle} input={idx}",
                    })
                positions = sorted(controllable_vertices(struct))
                if not positions:
                    continue
                dec = eig_sym(Lc)
                min_gap = float(np.min(np.diff(dec.values)))
                simple = min_gap > GAP_TOL
                targets = [(w - 1) * k2 + s - 1 for w in positions]
                nonzero = all(_entries_nonzero(dec.modal[:, j], targets)
                              for j in range(comp.n))
                cases.append({
                    "case": f"theorem3 structure={struct_name} cell={cell_name} s={s}",
                    "pass": bool(simple and nonzero),
                    "detail": f"min gap {min_gap:.3e}; "
                              f"entries nonzero at copies {positions}: {nonzero}",
                })
    return cases


def verify_cj() -> list[dict]:
    """Path-split predicate versus the exact oracle, paths up to 20 vertices."""
    cases = []
    for k in range(1, 21):
        L = laplacian(gen_path(k))
        for v in range(1, k + 1):
            predicted = path_split_controllable(v - 1, k - v)
            oracle = kalman_rank_exact(L, input_vector(k, [v])) == k
            cases.append({
                "case": f"cj P{k} v={v}",
                "pass": bool(predicted == oracle),
                "detail": f"split=({v - 1},{k - v}) predicted={predicted} oracle={oracle}",
            })
    return cases


def _block1_inputs(spec: ChainSpec):
    """All binary block-1 input patterns the chain theorem covers."""
    free = spec.k2 - 1 if (spec.links and spec.links[0] == "T") else spec.k2
    for bits in itertools.product((0, 1), repeat=free):
        if not any(bits):
            continue
        yield bits + (0,) * (spec.k2 - free)


def verify_chain() -> list[dict]:
    """Chain input predicate versus the exact oracle, all covered inputs."""
    cases = []
    for k2 in (2, 3, 4, 5):
        for c in (2, 3):
            for links in itertools.product("DT", repeat=c - 1):
                spec = ChainSpec(c=c, k2=k2, links=links)
                g = chain_antiregular(spec)
                L = laplacian(g)
                for bits in _block1_inputs(spec):
                    b = np.zeros((g.n, 1), dtype=np.int64)
                    b[:k2, 0] = bits
                    predicted = valid_chain_input(spec, b)
                    oracle = kalman_rank_exact(L, b) == g.n
                    word = "".join(links)
                    pattern = "".join(map(str, bits))
                    cases.append({
                        "case": f"chain c={c} k2={k2} links={word} b={pattern}",
                        "pass": bool(predicted == oracle),
                        "detail": f"predicted={predicted} oracle={oracle}",
                    })
    return cases


def verify_lemma6() -> list[dict]:
    """Chain spectra are simple and eigenvectors are nonzero at entries
    kappa and kappa+1, for every link mix with c <= 4 blocks of order <= 5."""
    cases = []
    for k2 in (2, 3, 4, 5):
        for c in (1, 2, 3, 4):
            for links in itertools.product("DT", repeat=c - 1):
                spec = ChainSpec(c=c, k2=k2, links=links)
                g = chain_antiregular(spec)
                dec = eig_sym(laplacian(g))
                gaps = np.diff(dec.values)
                min_gap = float(np.min(gaps)) if len(gaps) else float("inf")
                simple = min_gap > GAP_TOL
                kap = spec.kappa
                nonzero = all(_entries_nonzero(dec.modal[:, j], [kap - 1, kap])
                              for j in range(g.n))
                word = "".join(links) if links else "-"
                cases.append({
                    "case": f"lemma6 c={c} k2={k2} links={word}",
                    "pass": bool(simple and nonzero),
                    "detail": f"min gap {min_gap:.3e}; entries {kap},{kap + 1} nonzero: {nonzero}",
                })
    return cases


def verify_lemma7() -> list[dict]:
    """Appending a path to a vertex that every eigenvector avoids zeroing
    keeps every eigenvector nonzero at the path's far end."""
    hosts: list[tuple[str, Graph]] = [(f"AR{k}", gen_antiregular(k)) for k in range(2, 7)]
    for k2 in (2, 3):
        for link in "DT":
            spec = ChainSpec(c=2, k2=k2, links=(link,))
            hosts.append((f"chain c=2 k2={k2} links={link}", chain_antiregular(spec)))
    cases = []
    for name, g in hosts:
        for v in sorted(controllable_vertices(g)):
            for m in range(1, 6):
                appended = append_path(g, v, m)
                dec = eig_sym(laplacian(appended))
                gaps = np.diff(dec.values)
                min_gap = float(np.min(gaps)) if len(gaps) else float("inf")
                simple = min_gap > GAP_TOL
                far = appended.n - 1  # 0-based index of the path's far end
                nonzero = all(_entries_nonzero(dec.modal[:, j], [far])
                              for j in range(appended.n))
                cases.append({
                    "case": f"lemma7 {name} v={v} m={m}",
                    "pass": bool(simple and nonzero),
                    "detail": f"min gap {min_gap:.3e}; far-end entries nonzero: {nonzero}",
                })
    return cases


def verify_majorization(count: int = 100, maxk: int = 10,
                        seed: int = DEFAULT_SEED) -> list[dict]:
    """Spectrum majorized by the conjugate degree sequence, random graphs."""
    rng = random.Random(seed)
    cases = []
    for i in range(1, count + 1):
        k = rng.randint(2, maxk)
        g = random_connected_graph(k, rng)
        dec = eig_sym(laplacian(g))
        ok = check_majorization(dec.values, conjugate(degree_sequence(g)))
        cases.append({
            "case": f"majorization random-{i:03d}",
            "pass": bool(ok),
            "detail": f"k={k} edges={len(g.edges)}",
        })
    return cases


_FIG1C_INPUTS = [
    ("e3", (0, 0, 1, 0, 0)),
    ("e4", (0, 0, 0, 1, 0)),
    ("e3+e5", (0, 0, 1, 0, 1)),
    ("e4+e5", (0, 0, 0, 1, 1)),
]


def verify_figure1() -> list[dict]:
    """The paper-scale showcase graphs.

    A 35-vertex composite (7-vertex antiregular structure driven at its
    degree-repeating vertex 4, 5-vertex antiregular cell, s = 3) must be
    controllable at input index 18. And for every link mix, the chain of
    five 5-vertex antiregular blocks with a 4-vertex tail on block 1's
    degree-repeating vertex must be controllable for at least one input
    covered by the chain theorem, with and without the tail.
    """
    cases = []
    spec = CompositeSpec(structure=gen_antiregular(7), cell=gen_antiregular(5), s=3)
    comp = composite(spec)
    pred = predict_composite(spec, 4)
    rank = kalman_rank_exact(laplacian(comp), input_vector(comp.n, [18]))
    ok = rank == comp.n and pred.controllable and pred.input_vertex == 18
    cases.append({
        "case": "figure1d composite AR7(AR5,s=3) input=18",
        "pass": bool(ok),
        "detail": f"oracle rank {rank}/{comp.n}; predicted controllable={pred.controllable}",
    })
    for links in itertools.product("DT", repeat=4):
        bare_spec = ChainSpec(c=5, k2=5, links=links)
        tail_spec = ChainSpec(c=5, k2=5, links=links, tail=4)
        bare = chain_antiregular(bare_spec)
        tailed = chain_antiregular(tail_spec)
        L_bare, L_tail = laplacian(bare), laplacian(tailed)
        winners = []
        for label, pattern in _FIG1C_INPUTS:
            b_bare = np.zeros((bare.n, 1), dtype=np.int64)
            b_bare[:5, 0] = pattern
            try:
                if not valid_chain_input(bare_spec, b_bare):
                    continue
            except OutOfSupport:
                continue
            b_tail = np.zeros((tailed.n, 1), dtype=np.int64)
            b_tail[:5, 0] = pattern
            ok_bare = kalman_rank_exact(L_bare, b_bare) == bare.n
            ok_tail = kalman_rank_exact(L_tail, b_tail) == tailed.n
            if ok_bare and ok_tail:
                winners.append(label)
        word = "".join(links)
        cases.append({
            "case": f"figure1c chain 5xAR5 links={word} tail=4@3",
            "pass": bool(winners),
            "detail": f"controllable with and without tail for b in [{', '.join(winners)}]",
        })
    return cases


_PLAIN_SUITES = {
    "composite": verify_composite,
    "cj": verify_cj,
    "chain": verify_chain,
    "lemma6": verify_lemma6,
    "lemma7": verify_lemma7,
    "figure1": verify_figure1,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _load_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return graph_from_json(text)


def _cmd_gen(args) -> int:
    if args.family == "threshold":
        if not args.creation:
            raise ValueError("gen threshold needs --creation (a word over J/U)")
        g = gen_threshold(args.creation)
    else:
        if args.k is None:
            raise ValueError(f"gen {args.family} needs --k")
        g = {"path": gen_path, "antiregular": gen_antiregular,
             "complete": gen_complete}[args.family](args.k)
    _emit(graph_to_json(g), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    dec = eig_sym(laplacian(g), rtol=args.rtol)
    payload = {
        "values": [float(x) for x in dec.values],
        "modal": [[float(x) for x in dec.modal[:, j]] for j in range(g.n)],
    }
    _emit(json.dumps(payload, separators=(", ", ": ")), args.output)
    return 0


def _verdict_payload(verdict) -> dict:
    return json.loads(verdict.to_json())


def _check_verdict(method: str, L, b, args) -> Verdict:
    """Decide controllability of (L, b) by one method of ``check``."""
    if method == "exact":
        rank = kalman_rank_exact(L, b)
        return Verdict(controllable=rank == len(L), method="exact", rank=rank)
    if method == "gramian":
        gram = gramian_check(L, b, horizon=args.horizon, steps=args.steps)
        return Verdict(controllable=gram.controllable, method="gramian")
    return pbh_verdict(L, b)


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    L = laplacian(g)
    b = input_vector(g.n, args.input)
    if args.method == "all":
        verdicts = {m: _check_verdict(m, L, b, args) for m in ("exact", "pbh", "gramian")}
        agree = len({v.controllable for v in verdicts.values()}) == 1
        payload = {"agree": agree,
                   **{m: _verdict_payload(v) for m, v in verdicts.items()}}
        decision = verdicts["exact"].controllable
        _emit(json.dumps(payload, separators=(", ", ": ")), args.output)
        if not agree:
            return 1
    else:
        verdict = _check_verdict(args.method, L, b, args)
        decision = verdict.controllable
        _emit(verdict.to_json(), args.output)
    if args.expect is not None:
        wanted = args.expect == "controllable"
        if decision != wanted:
            print(f"expectation failed: wanted {args.expect}, got "
                  f"{'controllable' if decision else 'uncontrollable'}",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_compose(args) -> int:
    structure = _load_graph(args.structure)
    cell = _load_graph(args.cell)
    spec = CompositeSpec(structure=structure, cell=cell, s=args.s)
    if args.predict is None:
        _emit(graph_to_json(composite(spec)), args.output)
        return 0
    verdict = predict_composite(spec, args.predict)
    payload = {"input": verdict.input_vertex, **_verdict_payload(verdict)}
    _emit(json.dumps(payload, separators=(", ", ": ")), args.output)
    return 0


def _cmd_chain(args) -> int:
    spec = ChainSpec(c=args.c, k2=args.k2, links=tuple(args.links),
                     tail=args.tail, tail_attach=args.tail_attach)
    _emit(graph_to_json(chain_antiregular(spec)), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "majorization":
        cases = verify_majorization(count=args.random, maxk=args.maxk, seed=args.seed)
    else:
        cases = _PLAIN_SUITES[args.suite]()
    failures = 0
    for case in cases:
        print(json.dumps(case, separators=(", ", ": ")))
        failures += 0 if case["pass"] else 1
    print(json.dumps({"suite": args.suite, "cases": len(cases),
                      "failures": failures}, separators=(", ", ": ")))
    return 0 if failures == 0 else 1


def _cmd_export(args) -> int:
    g = _load_graph(args.graph)
    _emit(graph_to_dot(g) if args.dot else graph_to_json(g), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapctrl",
        description="Graph families, Laplacian spectra, and single-input "
                    "Laplacian controllability.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("family", choices=["path", "antiregular", "threshold", "complete"])
    p.add_argument("--k", type=int, help="vertex count")
    p.add_argument("--creation", help="threshold creation word over J/U, e.g. UJUJ")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenvectors of the Laplacian")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("check", help="decide controllability for one input")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--input", type=int, nargs="+", required=True,
                   help="vertices wired to the single input")
    p.add_argument("--method", choices=["exact", "pbh", "gramian", "all"],
                   default="pbh")
    p.add_argument("--expect", choices=["controllable", "uncontrollable"])
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compose", help="composite of a structure and a cell graph")
    p.add_argument("--structure", required=True, help="structure graph JSON file")
    p.add_argument("--cell", required=True, help="cell graph JSON file")
    p.add_argument("--s", type=int, required=True, help="composite vertex of the cell")
    p.add_argument("--predict", type=int, metavar="W",
                   help="predict controllability at structure vertex W instead "
                        "of emitting the graph")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("chain", help="chain of antiregular blocks")
    p.add_argument("--c", type=int, required=True, help="block count")
    p.add_argument("--k2", type=int, required=True, help="block order")
    p.add_argument("--links", default="", help="junction word over D/T, length c-1")
    p.add_argument("--tail", type=int, default=0, help="appended path length")
    p.add_argument("--tail-attach", type=int, default=None,
                   help="block-1 vertex for the tail (default: the "
                        "degree-repeating vertex)")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("verify", help="run a theorem-versus-oracle sweep")
    p.add_argument("suite", choices=["composite", "cj", "chain", "lemma6",
                                     "lemma7", "majorization", "figure1"])
    p.add_argument("--random", type=int, default=100,
                   help="case count for the majorization suite")
    p.add_argument("--maxk", type=int, default=10,
                   help="largest graph order for the majorization suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="re-emit a graph as DOT or normalized JSON")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT")
    fmt.add_argument("--json", action="store_true", help="emit normalized JSON (default)")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
