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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .graph_core import (Graph, gen_antiregular, gen_complete, gen_path,
                         gen_threshold, graph_from_json, graph_to_dot,
                         graph_to_json, laplacian)
from .spectral import ConvergenceError, eig_sym
from .controllability import (Verdict, exact_verdict, gramian_check, input_vector,
                              pbh_verdict)
from .compose import (ChainSpec, CompositeSpec, append_path, chain_antiregular, composite,
                      predict_composite)
from .verify import DEFAULT_SEED, SUITES

# Largest graph order the CLI builds; a dense Laplacian of this order takes
# 8 MB and its exact check about 1 s on a controllable pair.
_MAX_ORDER = 1024


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _check_order(n: int) -> None:
    if n > _MAX_ORDER:
        raise ValueError(f"graph order {n} is above the CLI's limit of {_MAX_ORDER}")


def _load_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    g = graph_from_json(text)
    _check_order(g.n)
    return g


def _cmd_gen(args) -> int:
    _check_order(len(args.value) + 1 if isinstance(args.value, str) else args.value)
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


def _deciders() -> dict:
    """check's deciders by method name, in the order "all" runs them; built
    per call, so a rebinding of these module names takes effect."""
    return {"exact": exact_verdict, "pbh": pbh_verdict, "gramian": gramian_check}


def _verdict_payload(verdict: Verdict) -> dict:
    """The JSON fields of a verdict, the one output format of every method."""
    witness = verdict.witness
    return {"controllable": verdict.controllable, "method": verdict.method,
            "witness": None if witness is None else [float(x) for x in witness],
            "rank": verdict.rank}


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    L = laplacian(g)
    b = input_vector(g.n, args.input)
    verdicts = {m: decide(L, b) for m, decide in _deciders().items()
                if args.method in (m, "all")}
    outcomes = {v.controllable for v in verdicts.values()}
    payloads = {m: _verdict_payload(v) for m, v in verdicts.items()}
    _emit(json.dumps({"agree": len(outcomes) == 1, **payloads} if args.method == "all"
                     else payloads[args.method]), args.output)
    if len(outcomes) > 1:
        return 1
    (decision,) = outcomes
    if args.expect is not None and decision != (args.expect == "controllable"):
        print(f"expectation failed: wanted {args.expect}, got "
              f"{'controllable' if decision else 'uncontrollable'}", file=sys.stderr)
        return 1
    return 0


def _cmd_compose(args) -> int:
    structure = _load_graph(args.structure)
    cell = _load_graph(args.cell)
    spec = CompositeSpec(structure=structure, cell=cell, s=args.s)
    if args.predict is None:
        _check_order(structure.n * cell.n)
        _emit(graph_to_json(composite(spec)), args.output)
        return 0
    verdict = predict_composite(spec, args.predict)
    payload = {"input": verdict.input_vertex, **_verdict_payload(verdict)}
    _emit(json.dumps(payload), args.output)
    return 0


def _cmd_chain(args) -> int:
    spec = ChainSpec(c=args.c, k2=args.k2, links=tuple(args.links))
    _check_order(spec.c * spec.k2 + args.tail)
    _emit(graph_to_json(append_path(chain_antiregular(spec), spec.kappa, args.tail)),
          args.output)
    return 0


def _cmd_verify(args) -> int:
    cases = SUITES[args.suite](**({"seed": args.seed} if "seed" in args else {}))
    # json.dumps(case) for verify's three keys, written out: the same bytes
    lines = [f'{{"case": {_quote(c["case"])}, "pass": {"true" if c["pass"] else "false"}, '
             f'"detail": {_quote(c["detail"])}}}' for c in cases]
    failures = sum(not c["pass"] for c in cases)
    lines.append(json.dumps({"suite": args.suite, "cases": len(cases), "failures": failures}))
    print("\n".join(lines))
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
    verbs = {}
    for verb, func, text in (
            ("gen", _cmd_gen, "generate a graph family member"),
            ("spectrum", _cmd_spectrum, "eigenvalues and eigenvectors of the Laplacian"),
            ("check", _cmd_check, "test controllability for one input"),
            ("compose", _cmd_compose, "composite of a structure and a cell graph"),
            ("chain", _cmd_chain, "chain of antiregular blocks"),
            ("verify", _cmd_verify, "run a theorem-versus-oracle sweep"),
            ("export", _cmd_export, "re-emit a graph as DOT or normalized JSON")):
        verbs[verb] = sub.add_parser(verb, help=text)
        verbs[verb].set_defaults(func=func)
    for verb in ("spectrum", "check", "export"):
        verbs[verb].add_argument("graph", help="graph JSON file, or - for stdin")

    families = verbs["gen"].add_subparsers(dest="family", required=True)
    for family, make, option, kind, text in (
            ("path", gen_path, "--k", int, "vertex count"),
            ("antiregular", gen_antiregular, "--k", int, "vertex count"),
            ("threshold", gen_threshold, "--creation", str, "creation word over J/U, e.g. UJUJ"),
            ("complete", gen_complete, "--k", int, "vertex count")):
        p = families.add_parser(family, help=f"the {family} family")
        p.add_argument(option, dest="value", metavar=option[2:].upper(), type=kind,
                       required=True, help=text)
        p.set_defaults(make=make)

    p = verbs["check"]
    p.add_argument("--input", type=int, nargs="+", required=True,
                   help="vertices wired to the single input")
    p.add_argument("--method", choices=[*_deciders(), "all"], default="pbh")
    p.add_argument("--expect", choices=["controllable", "uncontrollable"])

    p = verbs["compose"]
    p.add_argument("--structure", required=True, help="structure graph JSON file")
    p.add_argument("--cell", required=True, help="cell graph JSON file")
    p.add_argument("--s", type=int, required=True, help="composite vertex of the cell")
    p.add_argument("--predict", type=int, metavar="W",
                   help="predict controllability at structure vertex W instead "
                        "of emitting the graph")

    p = verbs["chain"]
    p.add_argument("--c", type=int, required=True, help="block count")
    p.add_argument("--k2", type=int, required=True, help="block order")
    p.add_argument("--links", default="", help="junction word over D/T, length c-1")
    p.add_argument("--tail", type=int, default=0,
                   help="length of a path appended at block 1's degree-repeating vertex")

    suites = verbs["verify"].add_subparsers(dest="suite", required=True)
    for suite in SUITES:
        suites.add_parser(suite, help=f"the {suite} sweep")
    suites.choices["majorization"].add_argument("--seed", type=int, default=DEFAULT_SEED,
                                                help="random seed")

    verbs["export"].add_argument("--dot", action="store_true",
                                 help="emit DOT instead of normalized JSON")

    for p in [*families.choices.values(),
              *(verbs[v] for v in ("spectrum", "check", "compose", "chain", "export"))]:
        p.add_argument("--output", "-o")

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
