"""Command-line interface behavior: formats, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lapctrl import eig_sym, graph_to_json, gen_path
from lapctrl.cli import build_parser, main
from lapctrl.verify import DEFAULT_SEED, SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def path3_file(tmp_path):
    f = tmp_path / "p3.json"
    f.write_text(graph_to_json(gen_path(3)))
    return str(f)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

class TestGen:
    def test_gen_path(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "path", "--k", "3")
        assert code == 0
        assert out == '{"n": 3, "edges": [[1, 2], [2, 3]]}\n'

    def test_gen_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "threshold", "--creation", "UJ")
        assert code == 0
        assert json.loads(out) == {"n": 3, "edges": [[1, 3], [2, 3]]}

    def test_gen_writes_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run_cli(capsys, "gen", "antiregular", "--k", "4",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4

    def test_gen_missing_k_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "path"])
        assert exc.value.code == 2
        assert "required: --k" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["threshold", "--creation", "UJ", "--k", "9"],
        ["path", "--k", "3", "--creation", "JJ"],
    ], ids=["threshold-k", "path-creation"])
    def test_gen_stray_option_is_an_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["gen", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_gen_unknown_family_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "cycle", "--k", "3"])

    def test_gen_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "antiregular", "--k", "7")
        _, second, _ = run_cli(capsys, "gen", "antiregular", "--k", "7")
        assert first == second


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

class TestSpectrum:
    def test_path3_values(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "spectrum", path3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
        assert len(payload["modal"]) == 3
        assert all(len(col) == 3 for col in payload["modal"])

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(graph_to_json(gen_path(2))))
        code, out, _ = run_cli(capsys, "spectrum", "-")
        assert code == 0
        assert json.loads(out)["values"] == pytest.approx([0.0, 2.0], abs=1e-9)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "spectrum", str(tmp_path / "absent.json"))
        assert code == 2 and err.startswith("error:")

    def test_rtol_is_a_usage_error(self, path3_file):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", path3_file, "--rtol", "1e-6"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class TestCheck:
    def test_default_method_is_pbh(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["controllable"] is True and payload["method"] == "pbh"

    def test_uncontrollable_reports_witness(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["controllable"] is False
        assert payload["witness"] is not None and len(payload["witness"]) == 3

    def test_witness_has_no_negative_zero(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "gen", "complete", "--k", "4")
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run_cli(capsys, "check", "-", "--input", "1")
        assert code == 0 and json.loads(out)["witness"] is not None
        assert "-0.0" not in out

    def test_exact_method_reports_rank(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "2",
                               "--method", "exact")
        assert code == 0
        assert json.loads(out) == {"controllable": False, "method": "exact",
                                   "witness": None, "rank": 2}

    def test_exact_method_verdict_json(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "1",
                               "--method", "exact")
        assert code == 0
        assert json.loads(out) == {"controllable": True, "method": "exact",
                                   "witness": None, "rank": 3}

    def test_gramian_method(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "3",
                               "--method", "gramian")
        assert code == 0
        payload = json.loads(out)
        assert payload["controllable"] is True and payload["method"] == "gramian"

    def test_steps_is_a_usage_error(self, path3_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", path3_file, "--input", "1", "--method", "gramian", "--steps", "9"])
        assert exc.value.code == 2

    def test_horizon_is_a_usage_error(self, path3_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", path3_file, "--input", "1", "--method", "gramian", "--horizon", "2"])
        assert exc.value.code == 2

    def test_all_methods_agree(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "2",
                               "--method", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["exact"]["controllable"] is False
        assert payload["pbh"]["controllable"] is False
        assert payload["gramian"]["controllable"] is False

    def test_all_methods_share_one_eigendecomposition(self, capsys, monkeypatch, path3_file):
        eig_sym(np.eye(2))  # so no earlier test's decomposition of L(P3) is remembered
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        code, out, _ = run_cli(capsys, "check", path3_file, "--input", "2", "--method", "all")
        assert code == 0 and json.loads(out)["agree"] is True
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("vertex", ["1", "2"])
    def test_single_method_matches_its_all_entry(self, capsys, path3_file, vertex):
        _, out, _ = run_cli(capsys, "check", path3_file, "--input", vertex,
                            "--method", "all")
        all_payload = json.loads(out)
        for method in ("exact", "pbh", "gramian"):
            _, out, _ = run_cli(capsys, "check", path3_file, "--input", vertex,
                                "--method", method)
            assert out == json.dumps(all_payload[method], separators=(", ", ": ")) + "\n"

    def test_multi_vertex_input(self, capsys, path3_file):
        code, out, _ = run_cli(capsys, "check", path3_file,
                               "--input", "1", "3", "--method", "exact")
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_expect_match_exits_zero(self, capsys, path3_file):
        code, _, err = run_cli(capsys, "check", path3_file, "--input", "2",
                               "--expect", "uncontrollable")
        assert code == 0 and err == ""

    def test_expect_mismatch_exits_one(self, capsys, path3_file):
        code, _, err = run_cli(capsys, "check", path3_file, "--input", "2",
                               "--expect", "controllable")
        assert code == 1
        assert "expectation failed" in err

    def test_input_out_of_range(self, capsys, path3_file):
        code, _, err = run_cli(capsys, "check", path3_file, "--input", "9")
        assert code == 2 and err.startswith("error:")

    def test_deeply_nested_json_is_a_usage_error(self, capsys, tmp_path):
        # nesting past the JSON parser's recursion limit is bad input, not a
        # crash, so it takes exit 2 and leaves exit 1 to failed checks
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run_cli(capsys, "check", str(deep), "--input", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid graph JSON")


# ---------------------------------------------------------------------------
# compose and chain
# ---------------------------------------------------------------------------

class TestCompose:
    def test_emits_composite_graph(self, capsys, tmp_path):
        f = tmp_path / "p2.json"
        f.write_text(graph_to_json(gen_path(2)))
        code, out, _ = run_cli(capsys, "compose", "--structure", str(f),
                               "--cell", str(f), "--s", "1")
        assert code == 0
        assert json.loads(out) == {"n": 4, "edges": [[1, 2], [1, 3], [3, 4]]}

    def test_predict(self, capsys, tmp_path):
        f = tmp_path / "p2.json"
        f.write_text(graph_to_json(gen_path(2)))
        code, out, _ = run_cli(capsys, "compose", "--structure", str(f),
                               "--cell", str(f), "--s", "2", "--predict", "2")
        assert code == 0
        assert json.loads(out) == {"input": 4, "controllable": True, "method": "exact",
                                   "witness": None, "rank": None}

    def test_hypothesis_failure_is_an_error(self, capsys, tmp_path, path3_file):
        f = tmp_path / "p2.json"
        f.write_text(graph_to_json(gen_path(2)))
        code, _, err = run_cli(capsys, "compose", "--structure", str(f),
                               "--cell", path3_file, "--s", "2", "--predict", "1")
        assert code == 2 and err.startswith("error:")


class TestChain:
    def test_terminal_chain_is_a_path(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--c", "3", "--k2", "2",
                               "--links", "TT")
        assert code == 0
        assert json.loads(out) == {
            "n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]}

    def test_tail_attaches_at_degree_repeating_vertex_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--c", "1", "--k2", "5", "--tail", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 7 and [3, 6] in payload["edges"]

    def test_negative_tail_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "chain", "--c", "1", "--k2", "5", "--tail", "-1")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["--c", "1", "--k2", "5", "--tail", "1", "--tail-attach", "1"],
        ["--c", "2", "--k2", "3", "--links", "D", "--tail", "1", "--tail-attach", "4"],
        ["--c", "2", "--k2", "3", "--links", "D", "--tail-attach", "2"],
    ], ids=["with-tail", "outside-block-one", "without-tail"])
    def test_tail_attach_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["chain", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tail-attach" in capsys.readouterr().err

    def test_wrong_link_count(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--c", "3", "--k2", "2",
                               "--links", "T")
        assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_DIGESTS = {
    ("composite",): "bfecc02017ea3c1908ecaa65765a92076e8ea33b43efd070c3f717c4422ad784",
    ("cj",): "9f8dfe18e209f7c4d8e7ef6995720c80583d2d7bb58af6601ae8e20ec2947075",
    ("chain",): "bf3a533974f1b16e9756b489bc1799188dc1661f300e12d20f877bb6a8940671",
    ("lemma6",): "b086cae4bcbb3aa49f1cb60a37a03cf83430887893512f2fbb4e8a96df008092",
    ("lemma7",): "89db09f38bb3bd3a88e04b757caf50073a08f6f0c89fa99a38d8b157b1798c67",
    ("majorization",): "4d68ae4f80833700343d5433a868afe8428a10b84f54793d9fb121ca6a326788",
    ("figure1",): "d28c56fd748c63104bf8f5eeb3f87a5265f8cb3aa4979d0b7665d2b8ac474abc",
    ("majorization", "--seed", "3"):
        "5038f9111f17648267b2d23e92a2f318c3224135d841bc8775ffa3d6c5830a66",
}


class TestVerify:
    def test_cj_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cj")
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary == {"suite": "cj", "cases": 210, "failures": 0}
        assert all(json.loads(line)["pass"] for line in lines[:-1])

    def test_majorization_options(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "majorization", "--seed", "1")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["cases"] == 100

    def test_bare_majorization_uses_the_library_seed(self, capsys):
        _, bare, _ = run_cli(capsys, "verify", "majorization")
        _, seeded, _ = run_cli(capsys, "verify", "majorization", "--seed", str(DEFAULT_SEED))
        assert bare == seeded

    @pytest.mark.parametrize("option", ["--seed"])
    def test_majorization_options_rejected_for_other_suites(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cj", option, "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err

    @pytest.mark.parametrize("argv", [["cj", "--random", "3"], ["majorization", "--maxk", "5"]],
                             ids=["random", "maxk"])
    def test_deleted_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])

    def test_prints_the_library_cases(self, capsys):
        cases = SUITES["lemma6"]()
        failures = sum(not c["pass"] for c in cases)
        code, out, _ = run_cli(capsys, "verify", "lemma6")
        expected = [json.dumps(c, separators=(", ", ": ")) for c in cases]
        expected.append(json.dumps({"suite": "lemma6", "cases": len(cases),
                                    "failures": failures}, separators=(", ", ": ")))
        assert out.splitlines() == expected
        assert code == 1

    def test_case_lines_are_the_json_of_each_case(self, capsys, monkeypatch):
        # the pinned bytes hold only ASCII text; these strings need escapes
        cases = [{"case": 'quote " backslash \\ slash /', "pass": True,
                  "detail": "tab\t newline\n nul\x00 del\x7f"},
                 {"case": "na\u00efve \u2211 \u2028 \U0001d53b", "pass": False,
                  "detail": "lone surrogate \ud800 and \u00e9"},
                 {"case": "", "pass": True, "detail": ""}]
        monkeypatch.setitem(SUITES, "cj", lambda: cases)
        code, out, _ = run_cli(capsys, "verify", "cj")
        assert out.splitlines() == [json.dumps(c) for c in cases] + [
            json.dumps({"suite": "cj", "cases": 3, "failures": 1})]
        assert code == 1

    def test_suite_choices_come_from_the_library(self):
        verb = _subcommands(build_parser())["verify"]
        assert list(_subcommands(verb)) == list(SUITES)

    @pytest.mark.parametrize("argv", list(_VERIFY_DIGESTS), ids=" ".join)
    def test_prints_the_pinned_bytes(self, capsys, argv):
        # "same behaviour" for verify is the same bytes: each suite's output
        # at its defaults, and majorization at another seed, by sha256
        _, out, _ = run_cli(capsys, "verify", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[argv]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

class TestExport:
    def test_dot(self, capsys, tmp_path):
        f = tmp_path / "p2.json"
        f.write_text(graph_to_json(gen_path(2)))
        code, out, _ = run_cli(capsys, "export", str(f), "--dot")
        assert code == 0 and out == "graph { 1 -- 2; }\n"

    def test_json_normalizes_edge_order(self, capsys, tmp_path):
        f = tmp_path / "messy.json"
        f.write_text('{"n": 3, "edges": [[3, 2], [2, 1]]}')
        code, out, _ = run_cli(capsys, "export", str(f))
        assert code == 0
        assert out == '{"n": 3, "edges": [[1, 2], [2, 3]]}\n'

    def test_dot_and_json_mutually_exclusive(self, tmp_path):
        f = tmp_path / "p2.json"
        f.write_text(graph_to_json(gen_path(2)))
        with pytest.raises(SystemExit):
            main(["export", str(f), "--dot", "--json"])

    def test_json_option_rejected(self, tmp_path):
        f = tmp_path / "p2.json"
        f.write_text(graph_to_json(gen_path(2)))
        with pytest.raises(SystemExit) as exc:
            main(["export", str(f), "--json"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# order limit
# ---------------------------------------------------------------------------

class TestOrderLimit:
    """Every path refuses order 1025 before building it, so a missing limit
    fails here instead of exhausting memory."""

    @pytest.mark.parametrize("verb", [["check", "--input", "1"], ["spectrum"], ["export"]],
                             ids=["check", "spectrum", "export"])
    def test_loaded_graph(self, capsys, tmp_path, verb):
        f = tmp_path / "edgeless.json"
        f.write_text('{"n": 1025, "edges": []}')
        code, out, err = run_cli(capsys, verb[0], str(f), *verb[1:])
        assert (code, out) == (2, "")
        assert err == "error: graph order 1025 is above the CLI's limit of 1024\n"

    @pytest.mark.parametrize("argv", [
        ["gen", "complete", "--k", "1025"],
        ["gen", "threshold", "--creation", "J" * 1024],
        ["chain", "--c", "5", "--k2", "205", "--links", "DDDD"],
        ["chain", "--c", "1", "--k2", "1000", "--tail", "25"],
    ], ids=["gen-complete", "gen-threshold", "chain", "chain-tail"])
    def test_built_graph(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: graph order 1025 is above")

    def test_composite_emission(self, capsys, tmp_path):
        f = tmp_path / "p33.json"
        f.write_text(graph_to_json(gen_path(33)))
        code, out, err = run_cli(capsys, "compose", "--structure", str(f),
                                 "--cell", str(f), "--s", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: graph order 1089 is above")

    def test_order_at_the_limit_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "path", "--k", "1024")
        assert code == 0 and json.loads(out)["n"] == 1024


# ---------------------------------------------------------------------------
# parser surface and the README's examples
# ---------------------------------------------------------------------------

def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(parser):
    return sorted(s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                  for s in a.option_strings)


def test_each_verb_takes_only_its_own_options():
    verbs = _subcommands(build_parser())
    surface = {name: _options(p) for name, p in verbs.items() if name != "gen"}
    surface.update({f"{verb} {name}": _options(p) for verb in ("gen", "verify")
                    for name, p in _subcommands(verbs[verb]).items()})
    assert surface == {
        "gen path": ["--k", "--output", "-o"],
        "gen antiregular": ["--k", "--output", "-o"],
        "gen threshold": ["--creation", "--output", "-o"],
        "gen complete": ["--k", "--output", "-o"],
        "spectrum": ["--output", "-o"],
        "check": ["--expect", "--input", "--method", "--output", "-o"],
        "compose": ["--cell", "--output", "--predict", "--s", "--structure", "-o"],
        "chain": ["--c", "--k2", "--links", "--output", "--tail", "-o"],
        "verify": [],
        **{f"verify {suite}": [] for suite in SUITES if suite != "majorization"},
        "verify majorization": ["--seed"],
        "export": ["--dot", "--output", "-o"],
    }


def test_readme_cli_examples_parse():
    """Every `lapctrl ...` command in the README's CLI code block parses; none runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    parser = build_parser()
    commands = []
    for line in block.splitlines():
        for part in re.split(r"&&|\|", line.split("#", 1)[0]):
            argv = shlex.split(part)
            if argv and argv[0] == "lapctrl":
                parser.parse_args(argv[1:])
                commands.append(argv[1:])
    assert {argv[0] for argv in commands} == set(_subcommands(parser))


def _readme_python_blocks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]


@pytest.mark.parametrize("block", _readme_python_blocks(),
                         ids=lambda block: block.splitlines()[0].split(" import ")[0])
def test_readme_library_examples_run(block):
    """Every ```python block of the README runs without error."""
    exec(compile(block, "README.md", "exec"), {})


def test_two_main_calls_build_one_parser(monkeypatch, capsys, path3_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        assert main(["gen", "path", "--k", "2"]) == 0
        assert main(["gen", "complete", "--k", "3"]) == 0
        gen = list(built)
        # check's tree is the top level and check's own parser, built once
        for _ in range(2):
            assert main(["check", path3_file, "--input", "1"]) == 0
            assert built[len(gen):] == ["lapctrl", "lapctrl check"]
    finally:
        build_parser.cache_clear()
    assert gen.count("lapctrl") == 1


def _subtrees(parser):
    """Each verb's parser under parser, and each gen family's and verify suite's."""
    for verb, p in _subcommands(parser).items():
        yield verb, p
        if verb in ("gen", "verify"):
            yield from ((f"{verb} {name}", q) for name, q in _subcommands(p).items())


_VERB_NAMES = ["gen", "spectrum", "check", "compose", "chain", "verify", "export"]
_USAGE = "usage: lapctrl [-h] {gen,spectrum,check,compose,chain,verify,export} ...\n"


@pytest.mark.parametrize("verb", _VERB_NAMES)
def test_a_verbs_own_tree_prints_the_full_trees_texts(verb):
    full, own = build_parser(), build_parser(verb)
    assert list(_subcommands(full)) == _VERB_NAMES
    assert own.format_usage() == full.format_usage() == _USAGE
    mine = dict(_subtrees(own))
    theirs = {name: p for name, p in _subtrees(full) if name.split()[0] == verb}
    assert list(mine) == list(theirs)
    for name, p in mine.items():
        assert p.format_help() == theirs[name].format_help()
        assert p.format_usage() == theirs[name].format_usage()


@pytest.mark.parametrize("argv", [
    ["gen", "path", "--creation", "UJ"],
    ["spectrum"],
    ["check", "g.json", "--input", "1", "--zz"],
    ["compose", "--structure", "a.json", "--cell", "b.json"],
    ["chain", "--c", "two", "--k2", "3"],
    ["verify", "cj", "--seed", "3"],
    ["export", "g.json", "--dott"],
    [],
    ["-h"],
    ["chec", "g.json", "--input", "1"],
], ids=[*_VERB_NAMES, "no-verb", "help", "misspelt-verb"])
def test_main_parses_as_the_full_tree_does(capsys, argv):
    """main builds only the named verb's tree, or the full tree when argv
    names no verb; either way it prints what the full tree prints."""
    results = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        results.append((exc.value.code, *capsys.readouterr()))
    assert results[0] == results[1]
    code, out, err = results[0]
    if argv == ["-h"]:
        assert (code, out, err) == (0, build_parser().format_help(), "")
    else:
        assert code == 2 and out == "" and "error: " in err
    if argv[:1] in ([], ["chec"], ["check"], ["verify"]):  # errors of the top level
        assert err.startswith(_USAGE)
    if not argv:
        assert err.endswith("error: the following arguments are required: verb\n")
    if argv[:1] == ["chec"]:
        assert "invalid choice: 'chec'" in err
        assert all(verb in err.split("choose from", 1)[1] for verb in _VERB_NAMES)


# ---------------------------------------------------------------------------
# process-level behavior
# ---------------------------------------------------------------------------

class TestProcess:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lapctrl.cli", "gen", "path", "--k", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"n": 2, "edges": [[1, 2]]}

    def test_console_script(self):
        # Run the [project.scripts] target the way an installer's generated
        # wrapper does, so the declared entry point is tested without an
        # installed `lapctrl` executable on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["lapctrl"]
        module, func = target.split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'lapctrl'; sys.exit({func}())")
        proc = subprocess.run([sys.executable, "-c", wrapper,
                               "gen", "complete", "--k", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 3
