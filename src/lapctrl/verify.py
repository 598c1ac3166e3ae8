"""Theorem-versus-oracle sweeps, with their case lists embedded in code.

Each sweep returns one dict per case with the keys ``case``, ``pass`` and
``detail``; ``SUITES`` maps each suite name to its sweep. The ``lapctrl
verify`` verb prints them as JSON lines, and the acceptance tests assert
on them, so a release can re-certify itself without external data.
"""

from __future__ import annotations

import itertools
import random

from .graph_core import (Graph, conjugate, degree_sequence, gen_antiregular,
                         gen_complete, gen_path, laplacian,
                         random_connected_graph)
from .spectral import check_majorization, eig_sym
from .controllability import exact_verdicts, input_vector
from .compose import (ChainSpec, CompositeSpec, OutOfSupport, append_path,
                      chain_antiregular, composite, path_split_controllable,
                      predict_composite, valid_chain_input)

DEFAULT_SEED = 2026

_FAMILY_RANGE = range(2, 6)


def _case(name: str, ok, detail: str) -> dict:
    return {"case": name, "pass": bool(ok), "detail": detail}


def _block1_input(n: int, bits):
    """n-by-1 input carrying bits on the first len(bits) vertices."""
    return input_vector(n, [v for v, bit in enumerate(bits, 1) if bit])


def _support_case(name: str, entries: list[int], blind: list[int]) -> dict:
    """A support claim: a simple spectrum, every eigenvector nonzero at each
    entry. For a Laplacian that is control from each entry, so the claim
    fails at the blind entries, where the exact oracle finds no control."""
    return _case(name, not blind, f"entries {entries}; uncontrollable from {blind}")


def _blind(claims: list[tuple]) -> list[list[int]]:
    """For each (L, entries) claim, the entries v where a single input at v
    does not control L; every claim is decided in one exact_verdicts call."""
    verdicts = iter(exact_verdicts((L, input_vector(len(L), [v]))
                                   for L, entries in claims for v in entries))
    return [[v for v in entries if not next(verdicts).controllable] for _, entries in claims]


def _family_graphs() -> list[tuple[str, Graph]]:
    out = []
    for name, fn in (("P", gen_path), ("AR", gen_antiregular), ("K", gen_complete)):
        out.extend((f"{name}{k}", fn(k)) for k in _FAMILY_RANGE)
    return out


def verify_composite() -> list[dict]:
    """Composite equivalence and simplicity, against the exact oracle.

    theorem4 cases: for every structure/cell pair over {P, AR, K : k in
    2..5}, every cell vertex s that controls the cell, and every structure
    vertex w, Theorem 4 says the composite is controllable at input
    (w-1)k2+s exactly when the structure is controllable at w, and exact
    Kalman on the composite must agree. theorem3 cases: whenever the
    structure has controllable vertices at all, the composite spectrum must
    be simple and every eigenvector must be nonzero at the composite-vertex
    indices of those structure positions, which theorem4's oracle calls
    decide.
    """
    graphs = _family_graphs()
    blind = _blind([(laplacian(g), range(1, g.n + 1)) for _, g in graphs])
    controlling = {name: [v for v in range(1, g.n + 1) if v not in out]
                   for (name, g), out in zip(graphs, blind)}
    runs = [(CompositeSpec(structure=struct, cell=cell, s=s), cell_name, struct_name)
            for cell_name, cell in graphs for s in controlling[cell_name]
            for struct_name, struct in graphs]

    # P2 = AR2 = K2, so specs repeat: one Laplacian per distinct spec, at most
    # 180 of order <= 25, whose bytes exact_verdicts holds anyway
    laplacians = {spec: laplacian(composite(spec)) for spec in dict.fromkeys(r[0] for r in runs)}
    verdicts = iter(exact_verdicts(
        (laplacians[spec], input_vector(spec.structure.n * spec.cell.n,
                                        [(w - 1) * spec.cell.n + spec.s]))
        for spec, _, _ in runs for w in range(1, spec.structure.n + 1)))
    cases = []
    for spec, cell_name, struct_name in runs:
        k1, k2, s = spec.structure.n, spec.cell.n, spec.s
        positions, controls = controlling[struct_name], {}
        for w in range(1, k1 + 1):
            predicted = w in positions
            idx = (w - 1) * k2 + s
            oracle = controls[idx] = next(verdicts).controllable
            cases.append(_case(
                f"theorem4 structure={struct_name} cell={cell_name} s={s} w={w}",
                predicted == oracle, f"predicted={predicted} oracle={oracle} input={idx}"))
        if not positions:
            continue
        entries = [(w - 1) * k2 + s for w in positions]
        cases.append(_support_case(
            f"theorem3 structure={struct_name} cell={cell_name} s={s}", entries,
            [v for v in entries if not controls[v]]))
    return cases


def verify_cj() -> list[dict]:
    """Path-split predicate versus the exact oracle, paths up to 20 vertices."""
    paths = [(k, v) for k in range(1, 21) for v in range(1, k + 1)]
    laplacians = {k: laplacian(gen_path(k)) for k in range(1, 21)}
    verdicts = exact_verdicts((laplacians[k], input_vector(k, [v])) for k, v in paths)
    cases = []
    for (k, v), verdict in zip(paths, verdicts):
        predicted = path_split_controllable(v - 1, k - v)
        oracle = verdict.controllable
        cases.append(_case(
            f"cj P{k} v={v}", predicted == oracle,
            f"split=({v - 1},{k - v}) predicted={predicted} oracle={oracle}"))
    return cases


def verify_chain() -> list[dict]:
    """Chain input predicate versus the exact oracle, every nonzero block-1
    input that the predicate covers (it raises OutOfSupport on the others)."""
    claims, pairs = [], []
    for k2 in (2, 3, 4, 5):
        for c in (2, 3):
            for links in itertools.product("DT", repeat=c - 1):
                spec = ChainSpec(c=c, k2=k2, links=links)
                g = chain_antiregular(spec)
                L = laplacian(g)
                for bits in itertools.product((0, 1), repeat=k2):
                    if not any(bits):
                        continue
                    b = _block1_input(g.n, bits)
                    try:
                        predicted = valid_chain_input(spec, b)
                    except OutOfSupport:
                        continue
                    word = "".join(links)
                    pattern = "".join(map(str, bits))
                    claims.append((f"chain c={c} k2={k2} links={word} b={pattern}", predicted))
                    pairs.append((L, b))
    return [_case(name, predicted == verdict.controllable,
                  f"predicted={predicted} oracle={verdict.controllable}")
            for (name, predicted), verdict in zip(claims, exact_verdicts(pairs))]


def verify_lemma6() -> list[dict]:
    """Chain spectra are simple and eigenvectors are nonzero at entries
    kappa and kappa+1, for every link mix with c <= 4 blocks of order <= 5."""
    names, claims = [], []
    for k2 in (2, 3, 4, 5):
        for c in (1, 2, 3, 4):
            for links in itertools.product("DT", repeat=c - 1):
                spec = ChainSpec(c=c, k2=k2, links=links)
                word = "".join(links) if links else "-"
                names.append(f"lemma6 c={c} k2={k2} links={word}")
                claims.append((laplacian(chain_antiregular(spec)), [spec.kappa, spec.kappa + 1]))
    return [_support_case(name, entries, blind)
            for name, (_, entries), blind in zip(names, claims, _blind(claims))]


def verify_lemma7() -> list[dict]:
    """Appending a path to a vertex that every eigenvector avoids zeroing
    keeps every eigenvector nonzero at the path's far end."""
    hosts: list[tuple[str, Graph]] = [(f"AR{k}", gen_antiregular(k)) for k in range(2, 7)]
    for k2 in (2, 3):
        for link in "DT":
            spec = ChainSpec(c=2, k2=k2, links=(link,))
            hosts.append((f"chain c=2 k2={k2} links={link}", chain_antiregular(spec)))
    blind = _blind([(laplacian(g), range(1, g.n + 1)) for _, g in hosts])
    names, claims = [], []
    for (name, g), out in zip(hosts, blind):
        for v in sorted(set(range(1, g.n + 1)) - set(out)):
            for m in range(1, 6):
                appended = append_path(g, v, m)
                names.append(f"lemma7 {name} v={v} m={m}")
                # the path's far end is the last vertex
                claims.append((laplacian(appended), [appended.n]))
    return [_support_case(name, entries, blind)
            for name, (_, entries), blind in zip(names, claims, _blind(claims))]


def verify_majorization(seed: int = DEFAULT_SEED) -> list[dict]:
    """Spectrum majorized by the conjugate degree sequence, on 100 random
    connected graphs of order 2..10."""
    rng = random.Random(seed)
    graphs = [random_connected_graph(rng.randint(2, 10), rng) for _ in range(100)]
    # each order's Laplacians are decomposed together, in one eig_sym call
    spectra = {k: iter(eig_sym([laplacian(g) for g in graphs if g.n == k]).values)
               for k in sorted({g.n for g in graphs})}
    return [_case(f"majorization random-{i:03d}",
                  check_majorization(next(spectra[g.n]), conjugate(degree_sequence(g))),
                  f"k={g.n} edges={len(g.edges)}") for i, g in enumerate(graphs, 1)]


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
    spec = CompositeSpec(structure=gen_antiregular(7), cell=gen_antiregular(5), s=3)
    comp = composite(spec)
    pred = predict_composite(spec, 4)
    words = ["".join(links) for links in itertools.product("DT", repeat=4)]
    tries = []  # (word, label, bare pair, tailed pair) for each covered input
    for word in words:
        bare_spec = ChainSpec(c=5, k2=5, links=tuple(word))
        bare = chain_antiregular(bare_spec)
        tailed = append_path(bare, bare_spec.kappa, 4)
        L_bare, L_tail = laplacian(bare), laplacian(tailed)
        for label, pattern in _FIG1C_INPUTS:
            b_bare = _block1_input(bare.n, pattern)
            try:
                if not valid_chain_input(bare_spec, b_bare):
                    continue
            except OutOfSupport:
                continue
            tries.append((word, label, (L_bare, b_bare),
                          (L_tail, _block1_input(tailed.n, pattern))))
    oracle, *verdicts = exact_verdicts([(laplacian(comp), input_vector(comp.n, [18]))]
                                       + [pair for _, _, *pairs in tries for pair in pairs])
    winners: dict[str, list[str]] = {word: [] for word in words}
    for (word, label, _, _), bare, tail in zip(tries, verdicts[::2], verdicts[1::2]):
        if bare.controllable and tail.controllable:
            winners[word].append(label)
    ok = oracle.controllable and pred.controllable and pred.input_vertex == 18
    cases = [_case("figure1d composite AR7(AR5,s=3) input=18", ok,
                   f"oracle rank {oracle.rank}/{comp.n}; predicted controllable={pred.controllable}")]
    cases += [_case(f"figure1c chain 5xAR5 links={word} tail=4@3", winners[word],
                    f"controllable with and without tail for b in [{', '.join(winners[word])}]")
              for word in words]
    return cases


SUITES = {
    "composite": verify_composite,
    "cj": verify_cj,
    "chain": verify_chain,
    "lemma6": verify_lemma6,
    "lemma7": verify_lemma7,
    "majorization": verify_majorization,
    "figure1": verify_figure1,
}
