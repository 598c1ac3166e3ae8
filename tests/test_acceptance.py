"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (shown with ``pytest -s``
and on any failure) and then asserts the criterion. Tolerances are pinned
here, not imported, so a drive-by change to library defaults cannot silently
weaken the gate.
"""

import itertools
import random

import numpy as np
import pytest

from lapctrl import (
    ChainSpec,
    CompositeSpec,
    OutOfSupport,
    antiregular_modal,
    antiregular_spectrum,
    append_path,
    chain_antiregular,
    composite,
    conjugate,
    controllable_vertices,
    degree_sequence,
    eig_sym,
    gen_antiregular,
    gen_complete,
    gen_path,
    gen_threshold,
    gramian_check,
    input_vector,
    is_graphical,
    kalman_rank_exact,
    laplacian,
    pbh_verdict,
    random_connected_graph,
    trace_of,
    valid_chain_input,
)
from lapctrl.verify import (
    DEFAULT_SEED,
    verify_chain,
    verify_cj,
    verify_composite,
    verify_figure1,
    verify_lemma6,
    verify_lemma7,
    verify_majorization,
)

SPECTRUM_ATOL = 1e-8


def _report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {index:2d} ({name}): {detail}")


def _failures(cases):
    return [c for c in cases if not c["pass"]]


def test_c01_antiregular_spectrum_closed_form():
    worst = 0.0
    for k in range(2, 13):
        dec = eig_sym(laplacian(gen_antiregular(k)))
        expected = np.array(antiregular_spectrum(k), dtype=float)
        worst = max(worst, float(np.max(np.abs(dec.values - expected))))
    ok = worst < SPECTRUM_ATOL
    _report(1, "antiregular spectrum", ok,
            f"k=2..12, worst |solver - closed form| = {worst:.3e} < {SPECTRUM_ATOL:.0e}")
    assert ok


def test_c02_integer_modal_table_exact():
    bad = []
    for k in range(2, 13):
        L = laplacian(gen_antiregular(k)).astype(np.int64)
        M = antiregular_modal(k)
        lam = np.array(antiregular_spectrum(k), dtype=np.int64)
        if not np.array_equal(L @ M, M * lam):
            bad.append(f"k={k}: eigen-equation")
        gram = M.T @ M
        if np.any(gram - np.diag(np.diag(gram))):
            bad.append(f"k={k}: orthogonality")
    ok = not bad
    _report(2, "integer modal table", ok,
            "k=2..12, exact eigen-equation and exact zero pairwise dots"
            if ok else "; ".join(bad))
    assert ok, bad


@pytest.fixture(scope="module")
def composite_cases():
    return verify_composite()


def test_c03_composite_prediction_equivalence(composite_cases):
    cases = [c for c in composite_cases if c["case"].startswith("theorem4")]
    fails = _failures(cases)
    ok = not fails and len(cases) == 924
    _report(3, "composite prediction vs exact oracle", ok,
            f"{len(cases)} structure/cell/s/w cases, {len(fails)} mismatches")
    assert ok, fails[:10]


def test_c04_composite_spectrum_simplicity(composite_cases):
    cases = [c for c in composite_cases if c["case"].startswith("theorem3")]
    fails = _failures(cases)
    ok = not fails and len(cases) == 198
    _report(4, "composite spectrum simplicity", ok,
            f"{len(cases)} spectra: exact oracle controls from every covered "
            f"composite vertex, {len(fails)} failures")
    assert ok, fails[:10]


def test_c05_path_split_classes():
    cases = verify_cj()
    fails = _failures(cases)
    ok = not fails and len(cases) == 210
    _report(5, "path split classes", ok,
            f"paths k<=20, every vertex: {len(cases)} cases, {len(fails)} mismatches")
    assert ok, fails[:10]


def test_c06_chain_input_predicate():
    cases = verify_chain()
    fails = _failures(cases)
    ok = not fails and len(cases) == 246
    _report(6, "chain input predicate", ok,
            f"c in {{2,3}}, k2 in 2..5, all link words, all covered b: "
            f"{len(cases)} cases, {len(fails)} mismatches")
    assert ok, fails[:10]


def test_c07_chain_eigenvector_support():
    cases = verify_lemma6()
    fails = _failures(cases)
    ok = not fails
    names = "; ".join(c["case"] for c in fails)
    _report(7, "chain eigenvector support", ok,
            f"c<=4, k2<=5, all link words: {len(cases)} cases, "
            f"{len(fails)} failures" + (f" [{names}]" if fails else ""))
    assert ok, fails


def test_lemma7_path_appending():
    """Lemma 7 sweep: appending a path at a controlling vertex keeps the
    spectrum simple and every eigenvector nonzero at the path's far end."""
    cases = verify_lemma7()
    fails = _failures(cases)
    assert len(cases) == 120 and not fails, fails[:10]


def test_c08_figure_reproduction():
    cases = verify_figure1()
    fails = _failures(cases)
    ok = not fails and len(cases) == 17
    _report(8, "reference composite and chain instances", ok,
            f"35-vertex composite and 25/29-vertex chains: "
            f"{len(cases)} cases, {len(fails)} failures")
    assert ok, fails


def _realizable_multisets(k: int) -> set:
    """Degree multisets of every simple graph on k labeled vertices.

    Each ascending-sorted degree vector is keyed as one base-k integer
    (degrees are at most k-1), so np.unique sorts int64 keys, not rows.
    Peeling a key's base-k digits from the least significant end gives the
    multiset back in descending order.
    """
    pairs = list(itertools.combinations(range(k), 2))
    m = len(pairs)
    inc = np.zeros((m, k), dtype=np.int16)
    for idx, (u, v) in enumerate(pairs):
        inc[idx, u] = inc[idx, v] = 1
    shifts = np.arange(m, dtype=np.int64)
    place = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = set()
    chunk = 1 << 16
    for start in range(0, 1 << m, chunk):
        codes = np.arange(start, min(start + chunk, 1 << m), dtype=np.int64)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.int16)
        degs = np.sort(bits @ inc, axis=1)
        keys.update(np.unique(degs @ place).tolist())
    keys = np.array(sorted(keys), dtype=np.int64)
    return set(map(tuple, (keys[:, None] // place[::-1] % k).tolist()))


def test_c09_majorization_and_graphicality():
    problems = []

    cases = verify_majorization(seed=DEFAULT_SEED)
    fails = _failures(cases)
    if fails or len(cases) != 100:
        problems.append(f"majorization sweep: {len(fails)} failures")

    checked = 0
    for k in range(1, 8):
        realizable = _realizable_multisets(k)
        for d in itertools.combinations_with_replacement(range(k - 1, -1, -1), k):
            checked += 1
            if is_graphical(d) != (d in realizable):
                problems.append(f"graphicality mismatch at {d}")

    words = ["".join(w) for r in range(1, 7)
             for w in itertools.product("JU", repeat=r)]
    for word in words:
        d = degree_sequence(gen_threshold(word))
        dstar = conjugate(d)
        lhs = rhs = 0
        for j in range(trace_of(d)):
            lhs += d[j] + 1
            rhs += dstar[j]
            if lhs != rhs:
                problems.append(f"threshold word {word}: strict inequality at {j + 1}")
                break

    ok = not problems
    _report(9, "majorization and graphicality", ok,
            f"100 random majorization cases, {checked} exhaustive degree "
            f"sequences (k<=7), {len(words)} threshold words at equality"
            if ok else "; ".join(problems[:5]))
    assert ok, problems[:10]


def test_c10_three_method_agreement():
    rng = random.Random(DEFAULT_SEED)
    disagreements = []
    outcomes = set()
    for i in range(200):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng)
        L = laplacian(g)
        v = rng.randint(1, n)
        b = input_vector(n, [v])
        exact = kalman_rank_exact(L, b) == n
        pbh = pbh_verdict(L, b).controllable
        gram = gramian_check(L, b).controllable
        outcomes.add(exact)
        if not (exact == pbh == gram):
            disagreements.append(
                {"i": i, "n": n, "vertex": v, "edges": sorted(g.edges),
                 "exact": exact, "pbh": pbh, "gramian": gram})
    ok = not disagreements and outcomes == {True, False}
    _report(10, "three-method agreement", ok,
            f"200 random instances n<=8, {len(disagreements)} disagreements, "
            f"both outcomes exercised: {outcomes == {True, False}}")
    assert ok, disagreements[:10]


def _support_targets():
    """(name, L, v) for every entry whose support the theorem3, lemma6 and
    lemma7 sweeps claim: each covered copy w of a composite, kappa and
    kappa+1 of a chain, and the far end of an appended path."""
    families = [(f"{name}{k}", make(k)) for name, make in
                (("P", gen_path), ("AR", gen_antiregular), ("K", gen_complete))
                for k in range(2, 6)]
    controlling = {name: sorted(controllable_vertices(g)) for name, g in families}
    for cell_name, cell in families:
        for s in controlling[cell_name]:
            for struct_name, struct in families:
                L = laplacian(composite(CompositeSpec(structure=struct, cell=cell, s=s)))
                for w in controlling[struct_name]:
                    name = f"theorem3 {struct_name}({cell_name}) s={s} w={w}"
                    yield name, L, (w - 1) * cell.n + s
    for k2 in (2, 3, 4, 5):
        for c in (1, 2, 3, 4):
            for links in itertools.product("DT", repeat=c - 1):
                spec = ChainSpec(c=c, k2=k2, links=links)
                L = laplacian(chain_antiregular(spec))
                for v in (spec.kappa, spec.kappa + 1):
                    yield f"lemma6 c={c} k2={k2} links={''.join(links)} v={v}", L, v
    hosts = [(f"AR{k}", gen_antiregular(k)) for k in range(2, 7)]
    hosts += [(f"chain c=2 k2={k2} links={link}",
               chain_antiregular(ChainSpec(c=2, k2=k2, links=(link,))))
              for k2 in (2, 3) for link in "DT"]
    for name, g in hosts:
        for v in sorted(controllable_vertices(g)):
            for m in range(1, 6):
                appended = append_path(g, v, m)
                yield f"lemma7 {name} v={v} m={m}", laplacian(appended), appended.n


def test_pbh_agrees_with_exact_on_the_support_targets():
    """The support sweeps are decided by the exact oracle alone; this keeps
    a numeric cross-check on the same graphs, well past c10's n <= 8."""
    count, outcomes, disagreements = 0, set(), []
    for name, L, v in _support_targets():
        b = input_vector(len(L), [v])
        exact = kalman_rank_exact(L, b) == len(L)
        count += 1
        outcomes.add(exact)
        if pbh_verdict(L, b).controllable != exact:
            disagreements.append((name, exact))
    assert count == 724 and outcomes == {True, False}
    assert not disagreements, disagreements[:10]


def test_chain_eigenvector_support_known_exceptions():
    """Companion to the seventh criterion: the exact list of failing cases is
    stable, so a regression that changes the set (either direction) is caught
    even while the criterion itself stays red."""
    cases = verify_lemma6()
    assert len(cases) == 60
    fails = sorted(c["case"] for c in _failures(cases))
    assert fails == [
        "lemma6 c=3 k2=2 links=DT",
        "lemma6 c=3 k2=2 links=TT",
        "lemma6 c=4 k2=2 links=DDT",
        "lemma6 c=4 k2=2 links=DTD",
        "lemma6 c=4 k2=2 links=TDT",
        "lemma6 c=4 k2=2 links=TTD",
    ]


def test_chain_eigenvector_support_known_exceptions_past_the_sweep():
    """Past the seventh criterion's range, the support claim fails outside
    k2 = 2 too: among the c = 5, k2 = 3 chains, an input at kappa + 1 = 3
    reaches only 13 of 15 dimensions on the link words TTTD and TTTT. The
    other 14 words are controllable from both kappa and kappa + 1."""
    ranks = {}
    for links in itertools.product("DT", repeat=4):
        spec = ChainSpec(c=5, k2=3, links=links)
        L = laplacian(chain_antiregular(spec))
        ranks["".join(links)] = tuple(kalman_rank_exact(L, input_vector(15, [v]))
                                      for v in (spec.kappa, spec.kappa + 1))
    assert len(ranks) == 16
    assert {word: r for word, r in ranks.items() if r != (15, 15)} == {
        "TTTD": (15, 13),
        "TTTT": (15, 13),
    }


def test_chain_input_predicate_known_exceptions():
    """Past the sixth criterion's range: k2 = 2 chains of c = 4..6 blocks,
    every link word and every covered block-1 input. The predicate says
    controllable on exactly these cases while the exact rank falls short
    (n-1, except n-2 for c=6 DDTDT b=01 and TDTDT b=10), and it is right on
    all others, so a change to either side of the set is caught."""
    cases, mismatches = 0, []
    for c in (4, 5, 6):
        for links in itertools.product("DT", repeat=c - 1):
            spec = ChainSpec(c=c, k2=2, links=links)
            g = chain_antiregular(spec)
            L = laplacian(g)
            for bits in ((0, 1), (1, 0), (1, 1)):
                b = input_vector(g.n, [v for v, bit in enumerate(bits, 1) if bit])
                try:
                    predicted = valid_chain_input(spec, b)
                except OutOfSupport:
                    continue
                cases += 1
                if predicted != (kalman_rank_exact(L, b) == g.n):
                    name = f"chain c={c} k2=2 links={''.join(links)} b={''.join(map(str, bits))}"
                    mismatches.append((name, predicted))
    assert cases == 112
    assert all(predicted for _, predicted in mismatches)
    assert sorted(name for name, _ in mismatches) == [
        "chain c=4 k2=2 links=DDT b=01",
        "chain c=4 k2=2 links=TDT b=10",
        "chain c=5 k2=2 links=DDDT b=01",
        "chain c=5 k2=2 links=DDTD b=01",
        "chain c=5 k2=2 links=DTDT b=01",
        "chain c=5 k2=2 links=TDDT b=10",
        "chain c=5 k2=2 links=TDTD b=10",
        "chain c=5 k2=2 links=TTDT b=10",
        "chain c=6 k2=2 links=DDDDT b=01",
        "chain c=6 k2=2 links=DDDTD b=01",
        "chain c=6 k2=2 links=DDTDD b=01",
        "chain c=6 k2=2 links=DDTDT b=01",
        "chain c=6 k2=2 links=DTDDT b=01",
        "chain c=6 k2=2 links=DTDTD b=01",
        "chain c=6 k2=2 links=DTTDT b=01",
        "chain c=6 k2=2 links=TDDDT b=10",
        "chain c=6 k2=2 links=TDDTD b=10",
        "chain c=6 k2=2 links=TDTDD b=10",
        "chain c=6 k2=2 links=TDTDT b=10",
        "chain c=6 k2=2 links=TTDDT b=10",
        "chain c=6 k2=2 links=TTDTD b=10",
        "chain c=6 k2=2 links=TTTDT b=10",
    ]
