"""Command-line surface: generate, decompose, check, interconnect, verify.

The ``verify`` verb prints the sweeps of ``lapctrl.verify`` one JSON line
per case, then a summary line. Exit codes: 0 success, 1 a verification or
--expect failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .graph_core import (Graph, gen_antiregular, gen_complete, gen_path,
                         gen_threshold, graph_from_json, graph_to_dot,
                         graph_to_json, laplacian)
from .spectral import ConvergenceError, eig_sym
from .controllability import (Verdict, gramian_check, input_vector,
                              kalman_rank_exact, pbh_verdict)
from .compose import (ChainSpec, CompositeSpec, append_path, chain_antiregular, composite,
                      predict_composite)
from .verify import SUITES


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
    _emit(graph_to_json(args.make(args.value)), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    dec = eig_sym(laplacian(g))
    payload = {
        "values": [float(x) for x in dec.values],
        "modal": [[float(x) for x in dec.modal[:, j]] for j in range(g.n)],
    }
    _emit(json.dumps(payload), args.output)
    return 0


def _verdict_payload(verdict: Verdict) -> dict:
    """The JSON fields of a verdict, the one output format of every method."""
    witness = verdict.witness
    return {"controllable": verdict.controllable, "method": verdict.method,
            "witness": None if witness is None else [float(x) for x in witness],
            "rank": verdict.rank}


def _check_verdict(method: str, L, b) -> Verdict:
    """Decide controllability of (L, b) by one method of ``check``."""
    if method == "exact":
        rank = kalman_rank_exact(L, b)
        return Verdict(controllable=rank == len(L), method="exact", rank=rank)
    if method == "gramian":
        return gramian_check(L, b)
    return pbh_verdict(L, b)


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    L = laplacian(g)
    b = input_vector(g.n, args.input)
    agree = True
    if args.method == "all":
        verdicts = {m: _check_verdict(m, L, b) for m in ("exact", "pbh", "gramian")}
        agree = len({v.controllable for v in verdicts.values()}) == 1
        payload = {"agree": agree,
                   **{m: _verdict_payload(v) for m, v in verdicts.items()}}
        decision = verdicts["exact"].controllable
    else:
        verdict = _check_verdict(args.method, L, b)
        payload = _verdict_payload(verdict)
        decision = verdict.controllable
    _emit(json.dumps(payload), args.output)
    if not agree:
        return 1
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
    _emit(json.dumps(payload), args.output)
    return 0


def _cmd_chain(args) -> int:
    spec = ChainSpec(c=args.c, k2=args.k2, links=tuple(args.links))
    _emit(graph_to_json(append_path(chain_antiregular(spec), spec.kappa, args.tail)),
          args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.seed is not None and args.suite != "majorization":
        raise ValueError(f"verify {args.suite} takes no --seed; "
                         "it applies to the majorization suite only")
    cases = SUITES[args.suite](**({} if args.seed is None else {"seed": args.seed}))
    failures = 0
    for case in cases:
        print(json.dumps(case))
        failures += 0 if case["pass"] else 1
    print(json.dumps({"suite": args.suite, "cases": len(cases), "failures": failures}))
    return 0 if failures == 0 else 1


def _cmd_export(args) -> int:
    g = _load_graph(args.graph)
    _emit(graph_to_dot(g) if args.dot else graph_to_json(g), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; main only reads it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapctrl",
        description="Graph families, Laplacian spectra, and single-input "
                    "Laplacian controllability.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    families = p.add_subparsers(dest="family", required=True)
    for family, make, option, kind, text in (
            ("path", gen_path, "--k", int, "vertex count"),
            ("antiregular", gen_antiregular, "--k", int, "vertex count"),
            ("threshold", gen_threshold, "--creation", str, "creation word over J/U, e.g. UJUJ"),
            ("complete", gen_complete, "--k", int, "vertex count")):
        p = families.add_parser(family, help=f"the {family} family")
        p.add_argument(option, dest="value", metavar=option[2:].upper(), type=kind,
                       required=True, help=text)
        p.add_argument("--output", "-o")
        p.set_defaults(func=_cmd_gen, make=make)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenvectors of the Laplacian")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("check", help="test controllability for one input")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--input", type=int, nargs="+", required=True,
                   help="vertices wired to the single input")
    p.add_argument("--method", choices=["exact", "pbh", "gramian", "all"],
                   default="pbh")
    p.add_argument("--expect", choices=["controllable", "uncontrollable"])
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
    p.add_argument("--tail", type=int, default=0,
                   help="length of a path appended at block 1's degree-repeating vertex")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("verify", help="run a theorem-versus-oracle sweep")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--seed", type=int, help="random seed for the majorization suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="re-emit a graph as DOT or normalized JSON")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of normalized JSON")
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
