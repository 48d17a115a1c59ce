"""Tests for the command-line front end: output bytes, exit codes, diagnostics."""

import json
import os
import resource
import shlex
import subprocess
import sys
from itertools import takewhile
from pathlib import Path
from time import perf_counter

import pytest

from ncomplex import cli
from ncomplex.cli import main, parse_complex_file
from ncomplex.free_algebra import Poly


@pytest.fixture
def edgeless3(tmp_path):
    p = tmp_path / "edgeless3.json"
    p.write_text('{"n": 3, "facets": []}')
    return str(p)


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.json"
    p.write_text('{"n": 3, "facets": [[1,2],[2,3]]}')
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseComplexFile:
    def test_happy_path(self, path3):
        c = parse_complex_file(path3)
        assert len(c.faces) == 5

    def test_schema_key_accepted(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"schema": 1, "n": 2, "facets": []}')
        assert len(parse_complex_file(str(p)).faces) == 2

    def test_diagnostics(self, tmp_path):
        cases = [
            ('{"n": 3, "facets": [[1,4]]}', "vertex 4 exceeds n=3"),
            ('{"n": 0, "facets": []}', "n=0 outside 1..16"),
            ('{"n": 3, "facets": [[1]], "extra": 1}', "unknown key 'extra'"),
            ('{"n": 3}', "required keys"),
            ('{"n": "3", "facets": []}', "'n' must be an integer"),
            ('{"n": 3, "facets": [1]}', "list of vertex lists"),
            ('[1,2]', "top level must be an object"),
            ('{nope', "malformed JSON"),
            ('{"schema": 2, "n": 2, "facets": []}', "unsupported schema"),
        ]
        for body, message in cases:
            p = tmp_path / "bad.json"
            p.write_text(body)
            with pytest.raises(ValueError, match=message.replace("[", "\\[")):
                parse_complex_file(str(p))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            parse_complex_file("/nonexistent/x.json")

    # each refusal names the file and reaches the CLI as exit 2
    def assert_refused(self, capsys, p, prefix):
        with pytest.raises(ValueError) as exc:
            parse_complex_file(str(p))
        assert str(exc.value).startswith(prefix)
        code, out, err = run(capsys, ["closure", "--complex", str(p)])
        assert code == 2 and out == "" and err.startswith(f"error: {prefix}")

    def test_nesting_too_deep(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200000)
        self.assert_refused(capsys, p, f"malformed JSON in {p}: ")

    def test_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_text('{"n": 3, "facets": []}', encoding="utf-16")
        self.assert_refused(capsys, p, f"malformed JSON in {p}: 'utf-8' codec")

    def test_integer_over_the_digit_limit(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text('{"n": ' + "9" * 5000 + ', "facets": []}')
        self.assert_refused(capsys, p, f"malformed JSON in {p}: ")

    def test_closure_refusal_names_the_file(self, capsys, tmp_path):
        p = tmp_path / "v4.json"
        p.write_text('{"n": 3, "facets": [[1,4]]}')
        self.assert_refused(capsys, p, f"{p}: vertex 4 exceeds n=3")

    @pytest.mark.parametrize("vertex,shown", [
        ("[" * 499 + "]" * 499, "[" * 37 + "... is not an integer"),
        ("4" + "0" * 60, "4" + "0" * 36 + "... exceeds n=3")])
    def test_vertex_cut_short(self, capsys, tmp_path, vertex, shown):
        p = tmp_path / "long.json"
        p.write_text('{"n": 3, "facets": [[' + vertex + "]]}")
        self.assert_refused(capsys, p, f"{p}: vertex {shown}")
        _, _, err = run(capsys, ["closure", "--complex", str(p)])
        assert err == f"error: {p}: vertex {shown}\n"


class TestClosureCommand:
    def test_output(self, capsys, path3):
        code, out, _ = run(capsys, ["closure", "--complex", path3])
        assert code == 0
        assert out == "n=3 dim=1 faces=5\n{1}\n{2}\n{3}\n{1,2}\n{2,3}\n"

    def test_input_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n":3,"facets":[[1,4]]}')
        code, _, err = run(capsys, ["closure", "--complex", str(p)])
        assert code == 2
        assert "vertex 4 exceeds n=3" in err


class TestRelationsCommand:
    def test_family_4_documented_invocation(self, capsys):
        code, out, _ = run(capsys, ["relations", "--family", "4", "--n", "2",
                                    "--A", "", "--i", "1", "--j", "2"])
        assert code == 0
        assert out == ("-u({1})*u({2}) + u({2})*u({1})"
                       " + u({1,2})*u({1}) - u({1,2})*u({2})\n")

    def test_family_1(self, capsys):
        code, out, _ = run(capsys, ["relations", "--family", "1", "--n", "2",
                                    "--A", "", "--i", "1", "--j", "2"])
        assert code == 0
        assert out == "z({},1) - z({},2) + z({1},2) - z({2},1)\n"

    def test_family_9_needs_B(self, capsys):
        code, _, err = run(capsys, ["relations", "--family", "9", "--n", "3",
                                    "--A", "3", "--i", "1", "--j", "2"])
        assert code == 2 and "requires --B" in err
        code, out, _ = run(capsys, ["relations", "--family", "9", "--n", "3",
                                    "--A", "3", "--B", "", "--i", "1", "--j", "2"])
        assert code == 0
        assert out == ("u({1})*u({2}) - u({2})*u({1})"
                       " - u({2})*u({1,3}) + u({1,3})*u({2})\n")

    def test_family_theorem(self, capsys, path3):
        code, out, _ = run(capsys, ["relations", "--family", "theorem",
                                    "--complex", path3])
        assert code == 0
        assert len(out.rstrip("\n").split("\n")) == 6

    def test_family_theorem_without_relations_prints_nothing(self, capsys, tmp_path):
        point = tmp_path / "point.json"
        point.write_text('{"n": 1, "facets": []}')
        code, out, err = run(capsys, ["relations", "--family", "theorem",
                                      "--complex", str(point)])
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("argv,log2_words", [
        (["--family", "4", "--n", "11", "--A", "3,4,5,6,7,8,9,10,11"], 20),
        (["--family", "5", "--n", "16", "--A", ",".join(map(str, range(3, 17)))], 30),
        (["--family", "9", "--n", "16", "--A", ",".join(map(str, range(3, 12))),
          "--B", ",".join(map(str, range(1, 10)))], 19),
    ], ids=["4-A9", "5-A14", "9-A9-B9"])
    def test_big_sets_refused_before_building(self, capsys, argv, log2_words):
        start = perf_counter()
        code, out, err = run(capsys, ["relations", *argv, "--i", "1", "--j", "2"])
        assert perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"about 2^{log2_words} words, over the cap 262144" in err

    def test_largest_accepted_set(self, capsys, monkeypatch):
        # |A| = 8 is about 2^18 words, at the cap; a stub stands in for the
        # seconds-long expansion
        monkeypatch.setattr("ncomplex.cli.rel_4", lambda a, i, j: Poly.one())
        code, out, _ = run(capsys, ["relations", "--family", "4", "--n", "10",
                                    "--A", "3,4,5,6,7,8,9,10", "--i", "1", "--j", "2"])
        assert code == 0 and out == "1\n"

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, ["relations", "--family", "4", "--n", "2"])
        assert code == 2 and "requires" in err

    @pytest.mark.parametrize("family", ["4", "10"])
    @pytest.mark.parametrize("n,i,msg", [("2", "0", "vertex 0 is below 1"),
                                         ("3", "4", "vertex 4 exceeds n=3"),
                                         ("2", "1000000000", "vertex 1000000000 exceeds n=2")])
    def test_index_outside_the_universe_refused_fast(self, capsys, family, n, i, msg):
        start = perf_counter()
        code, out, err = run(capsys, ["relations", "--family", family, "--n", n,
                                      "--A", "", "--i", i, "--j", "1"])
        assert perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    def test_bad_instance(self, capsys):
        code, _, err = run(capsys, ["relations", "--family", "4", "--n", "2",
                                    "--A", "1", "--i", "1", "--j", "2"])
        assert code == 2 and "lies in" in err

    def test_bad_vertex_list(self, capsys):
        code, _, err = run(capsys, ["relations", "--family", "4", "--n", "3",
                                    "--A", "1,x", "--i", "2", "--j", "3"])
        assert code == 2
        assert "--A must be a comma-separated list of vertices, got '1,x'" in err
        code, _, err = run(capsys, ["relations", "--family", "9", "--n", "3",
                                    "--A", "3", "--B", "1,x", "--i", "1", "--j", "2"])
        assert code == 2
        assert "--B must be a comma-separated list of vertices, got '1,x'" in err


class TestGoldenOutput:
    """Stdout frozen from the all-Fraction coefficient store: keeping
    integral coefficients as int must not change a byte."""

    def test_membership_with_fractional_coefficients(self, capsys, path3):
        code, out, _ = run(capsys, [
            "membership", "--complex", path3, "--poly",
            "1/2*u({1})*u({3})-2/3*u({3})*u({1,2})+3*u({2})*u({2})",
            "--max-degree", "2"])
        assert code == 1
        assert out == ("non-member\n"
                       "remainder: 1/2*u({1})*u({3}) + 3*u({2})*u({2})"
                       " - 2/3*u({3})*u({1,2})\n")

    @pytest.mark.parametrize("family,args,expected", [
        ("1", "--n 3 --A 3 --i 1 --j 2",
         'z({3},1) - z({3},2) + z({1,3},2) - z({2,3},1)'),
        ("2", "--n 3 --A 3 --i 1 --j 2",
         'z({1,3},2)*z({3},1) - z({2,3},1)*z({3},2)'),
        ("4", "--n 3 --A 3 --i 1 --j 2",
         '-u({1})*u({2}) - u({1})*u({2,3}) + u({2})*u({1})'
         ' + u({2})*u({1,3}) + u({1,2})*u({1}) - u({1,2})*u({2})'
         ' + u({1,2})*u({1,3}) - u({1,2})*u({2,3}) - u({1,3})*u({2})'
         ' - u({1,3})*u({2,3}) + u({2,3})*u({1}) + u({2,3})*u({1,3})'
         ' + u({1,2,3})*u({1}) - u({1,2,3})*u({2}) + u({1,2,3})*u({1,3})'
         ' - u({1,2,3})*u({2,3})'),
        ("5", "--n 3 --A 3 --i 2 --j 1",
         '-u({1})*u({2}) - u({1})*u({2,3}) + u({2})*u({1})'
         ' + u({2})*u({1,3}) + u({1,2})*u({1}) - u({1,2})*u({2})'
         ' + u({1,2})*u({1,3}) - u({1,2})*u({2,3}) - u({1,3})*u({2})'
         ' - u({1,3})*u({2,3}) + u({2,3})*u({1}) + u({2,3})*u({1,3})'
         ' + u({1,2,3})*u({1}) - u({1,2,3})*u({2}) + u({1,2,3})*u({1,3})'
         ' - u({1,2,3})*u({2,3})'),
        ("9", "--n 4 --A 3 --B 4 --i 1 --j 2",
         'u({1})*u({2}) + u({1})*u({2,4}) - u({2})*u({1})'
         ' - u({2})*u({1,3}) + u({1,3})*u({2}) + u({1,3})*u({2,4})'
         ' - u({2,4})*u({1}) - u({2,4})*u({1,3})'),
        ("10", "--n 3 --A 3 --i 1 --j 2",
         'u({1})*u({2}) + u({1})*u({2,3}) - u({2})*u({1})'
         ' - u({2})*u({1,3}) - u({1,2})*u({1}) + u({1,2})*u({2})'
         ' - u({1,2})*u({1,3}) + u({1,2})*u({2,3}) + u({1,3})*u({2})'
         ' + u({1,3})*u({2,3}) - u({2,3})*u({1}) - u({2,3})*u({1,3})'),
    ], ids=["1", "2", "4", "5", "9", "10"])
    def test_relations(self, capsys, family, args, expected):
        code, out, _ = run(capsys, ["relations", "--family", family, *args.split()])
        assert code == 0
        assert out == expected + "\n"

    def test_relations_theorem(self, capsys, path3):
        code, out, _ = run(capsys, ["relations", "--family", "theorem",
                                    "--complex", path3])
        assert code == 0
        assert out == (
            "u({1})*u({2}) - u({2})*u({1}) - u({1,2})*u({1}) + u({1,2})*u({2})\n"
            "u({1})*u({3}) - u({3})*u({1})\n"
            "u({2})*u({3}) - u({3})*u({2}) - u({2,3})*u({2}) + u({2,3})*u({3})\n"
            "u({1})*u({2,3}) + u({1,2})*u({2,3}) - u({2,3})*u({1})\n"
            "u({1})*u({2,3}) - u({3})*u({1,2}) + u({1,2})*u({3})"
            " + u({1,2})*u({2,3}) - u({2,3})*u({1}) - u({2,3})*u({1,2})\n"
            "-u({3})*u({1,2}) + u({1,2})*u({3}) - u({2,3})*u({1,2})\n")


class TestHilbertCommand:
    def test_documented_invocation(self, capsys, edgeless3):
        code, out, _ = run(capsys, ["hilbert", "--complex", edgeless3,
                                    "--max-degree", "2"])
        assert code == 0
        assert out == ('{"schema":1,"label":"QF(n=3,faces={1},{2},{3})",'
                       '"dims":[1,3,6]}\n')
        assert json.loads(out)["dims"] == [1, 3, 6]

    def test_graph_presentation(self, capsys, path3):
        code, out, _ = run(capsys, ["hilbert", "--complex", path3,
                                    "--max-degree", "2",
                                    "--presentation", "graph"])
        assert code == 0
        obj = json.loads(out)
        assert obj["dims"] == [1, 5, 20]
        assert obj["label"].startswith("QGraph")

    def test_graph_presentation_needs_low_dim(self, capsys, tmp_path):
        p = tmp_path / "simplex.json"
        p.write_text('{"n": 3, "facets": [[1,2,3]]}')
        code, _, err = run(capsys, ["hilbert", "--complex", str(p),
                                    "--max-degree", "2",
                                    "--presentation", "graph"])
        assert code == 2 and "dimension 2" in err

    def test_determinism(self, capsys, edgeless3):
        argv = ["hilbert", "--complex", edgeless3, "--max-degree", "2"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


    def test_huge_degree_refused_fast(self, capsys, path3, tmp_path):
        # neither k^d nor a loop over the degrees is evaluated
        one = tmp_path / "one.json"
        one.write_text('{"n": 1, "facets": []}')
        for argv, msg in [
                (["hilbert", "--complex", path3, "--max-degree", "100000000"],
                 "7^100000000 words"),
                (["hilbert", "--complex", path3, "--max-degree", "100000000",
                  "--presentation", "graph"], "5^100000000 words"),
                (["hilbert", "--complex", str(one), "--max-degree", "100000000"],
                 "1^100000000 words"),
                (["hilbert", "--complex", str(one), "--max-degree", "9999999"],
                 "1^9999999 words"),
                (["membership", "--complex", path3, "--poly", "u({1})",
                  "--max-degree", "100000000"], "7^100000000 words")]:
            start = perf_counter()
            code, out, err = run(capsys, argv)
            assert perf_counter() - start < 1.0, argv
            assert code == 2 and out == ""
            assert err == f"error: {msg} exceed the monomial cap 10000000\n"


def _limit_address_space():
    # the child's own limit: an over-large build fails instead of swapping
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.fixture(params=[(9, 22500000), (16, 5859375000000)], ids=["n=9", "n=16"])
def long_path(request, tmp_path):
    n, words = request.param
    p = tmp_path / f"path{n}.json"
    p.write_text(json.dumps({"n": n, "facets": [[i, i + 1] for i in range(1, n)]}))
    return n, words, str(p)


def _run_refused(argv, n, words):
    """Run the CLI in a child capped at 1 GiB; it must exit 2 within 2 s with
    the rel_4 family refusal and print nothing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ncomplex.cli", *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=_limit_address_space, timeout=60)
    assert perf_counter() - start < 2.0, argv
    assert proc.returncode == 2 and proc.stdout == "", argv
    assert proc.stderr == (f"error: the rel_4 family on n={n} nodes has "
                           f"{words} words, over the monomial cap 10000000\n")


class TestRel4FamilyRefused:
    """Past n = 8 the rel_4 family holds over 10^7 words; every command that
    would build it, and the base algebra in either form, exits 2 before
    building any instance."""

    def test_refused_fast_in_a_small_address_space(self, long_path):
        n, words, path = long_path
        for argv in (["hilbert", "--complex", path, "--max-degree", "1"],
                     ["membership", "--complex", path, "--poly", "u({1})",
                      "--max-degree", "2"],
                     ["verify", "--complex", path],
                     ["verify", "--n", str(n)]):
            _run_refused(argv, n, words)

    @pytest.mark.parametrize("n,words", [(9, 22500000), (12, 5156250000)])
    def test_z_form_refused_with_the_base_algebra(self, n, words):
        _run_refused(["verify", "--n", str(n), "--checks", "eq3_welldefined"], n, words)

    def test_graph_presentation_still_answers(self, capsys, tmp_path):
        p = tmp_path / "path16.json"
        p.write_text(json.dumps({"n": 16, "facets": [[i, i + 1] for i in range(1, 16)]}))
        code, out, _ = run(capsys, ["hilbert", "--complex", str(p), "--max-degree", "2",
                                    "--presentation", "graph"])
        assert code == 0
        dims = json.loads(out)["dims"]
        assert dims[:2] == [1, 31] and len(dims) == 3


class TestMembershipCommand:
    def test_member(self, capsys, path3):
        code, out, _ = run(capsys, ["membership", "--complex", path3, "--poly",
                                    "[u({1}),u({3})]", "--max-degree", "2"])
        assert code == 0
        assert out == "member\nremainder: 0\n"

    def test_non_member_with_remainder(self, capsys, path3):
        code, out, _ = run(capsys, ["membership", "--complex", path3, "--poly",
                                    "[u({1,2}),u({3})]", "--max-degree", "2"])
        assert code == 1
        assert out == ("non-member\n"
                       "remainder: -u({3})*u({1,2}) + u({1,2})*u({3})\n")

    def test_inhomogeneous_input_is_split(self, capsys, edgeless3):
        code, out, _ = run(capsys, ["membership", "--complex", edgeless3,
                                    "--poly", "u({1,2}) + [u({1}),u({2})]",
                                    "--max-degree", "2"])
        assert code == 0 and out.startswith("member")

    def test_degree_above_bound(self, capsys, path3):
        code, _, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                    "u({1})*u({2})*u({3})", "--max-degree", "2"])
        assert code == 2 and "degree 3" in err

    def test_degree_checked_before_basis_build(self, capsys, path3, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("basis built for an over-degree query")
        monkeypatch.setattr("ncomplex.cli.TruncatedIdealBasis", build)
        code, _, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                    "u({1})*u({2})*u({3})", "--max-degree", "2"])
        assert code == 2 and "degree 3 > --max-degree 2" in err

    @pytest.mark.parametrize("poly", ["u({1,3})*z({},1)", "z({},1)*u({1,3})"])
    def test_stray_symbol_beside_a_killed_letter(self, capsys, path3, poly):
        # u({1,3}) is a non-face of the path, so its letter is killed
        code, out, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                      poly, "--max-degree", "3"])
        assert code == 2 and out == ""
        assert err == "error: symbol z({},1) is not in the presentation's alphabet\n"

    def test_parse_error(self, capsys, path3):
        code, _, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                    "u({1}", "--max-degree", "2"])
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("poly", ["(" * 1200 + "u({1})" + ")" * 1200,
                                      "[" * 1200 + "u({1})" + ",u({2})]" * 1200])
    def test_deep_nesting_exit_2(self, capsys, path3, poly):
        code, out, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                      poly, "--max-degree", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "deeper than" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_nested_commutators_refused_while_parsing(self, capsys, path3):
        # without the bound each level doubles the parsed polynomial
        poly = "[" * 25 + "u({1})" + "".join(f",u({{{2 + i % 2}}})]" for i in range(25))
        start = perf_counter()
        code, out, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                      poly, "--max-degree", "2"])
        assert perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: polynomial has a product of degree 3 > --max-degree 2\n"

    def test_over_degree_product_refused_even_if_it_cancels(self, capsys, path3):
        code, out, err = run(capsys, ["membership", "--complex", path3, "--poly",
                                      "[u({1})*u({2}),u({1})*u({2})]", "--max-degree", "2"])
        assert code == 2 and out == ""
        assert "product of degree 4 > --max-degree 2" in err


class TestVerifyCommand:
    def test_documented_invocation(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "2", "--checks", "corollary"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS corollary n=2")
        assert lines[-1] == "overall PASS (1/1 checks passed)"

    def test_json_format(self, capsys, path3):
        code, out, _ = run(capsys, ["verify", "--complex", path3,
                                    "--checks", "proposition,theorem",
                                    "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1 and obj["overall"] is True
        assert [e["check"] for e in obj["entries"]] == ["proposition", "theorem"]

    def test_complex_default_runs_all_checks(self, capsys, path3):
        code, out, _ = run(capsys, ["verify", "--complex", path3])
        assert code == 0
        assert "overall PASS (7/7 checks passed)" in out

    def test_high_dimensional_complex_skips_graph_checks_by_default(self, capsys, tmp_path):
        p = tmp_path / "simplex.json"
        p.write_text('{"n": 3, "facets": [[1,2,3]]}')
        code, out, _ = run(capsys, ["verify", "--complex", str(p)])
        assert code == 0
        assert "overall PASS (5/5 checks passed)" in out
        code, _, err = run(capsys, ["verify", "--complex", str(p),
                                    "--checks", "theorem"])
        assert code == 2 and "dimension <= 1" in err

    def test_exclusive_inputs(self, capsys, path3):
        code, _, err = run(capsys, ["verify"])
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, ["verify", "--n", "2", "--complex", path3])
        assert code == 2 and "exactly one" in err

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, ["verify", "--n", "2", "--checks", "nope"])
        assert code == 2 and "unknown check" in err

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_n_below_one(self, capsys, n):
        code, out, err = run(capsys, ["verify", "--n", n])
        assert code == 2 and out == ""
        assert err == f"error: n={n} outside 1..16\n"

    @pytest.mark.parametrize("n", ["17", "7000", "10000000"])
    def test_n_above_the_universe_refused_before_the_family_is_priced(self, capsys, n):
        # the rel_4 family's price 4n(n-1) * 5^(n-2) has 14, 4,900 and about
        # 7 million digits here
        start = perf_counter()
        code, out, err = run(capsys, ["verify", "--n", n])
        assert perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: n={n} outside 1..16\n"

    def test_empty_check_list(self, capsys):
        code, out, err = run(capsys, ["verify", "--n", "2", "--checks", ","])
        assert code == 2 and out == ""
        assert "no checks selected" in err

    def test_repeated_check_runs_once(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "2", "--checks", "corollary,corollary"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[0].startswith("PASS corollary n=2 (")
        assert lines[1] == "overall PASS (1/1 checks passed)"

    def test_json_determinism_modulo_millis(self, capsys):
        argv = ["verify", "--n", "2", "--checks", "corollary", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        o1, o2 = json.loads(out1), json.loads(out2)
        for o in (o1, o2):
            for e in o["entries"]:
                e["millis"] = 0
        assert o1 == o2


@pytest.mark.parametrize("argv", [
    ["hilbert", "--complex", "MISSING", "--max-degree", "-1"],
    ["membership", "--complex", "MISSING", "--poly", "0", "--max-degree", "-1"],
    ["membership", "--complex", "PATH3", "--poly", "u({1})*u({2})", "--max-degree", "-1"],
    ["membership", "--complex", "PATH3", "--poly", "u({1}", "--max-degree", "-1"],
], ids=["hilbert", "membership-zero", "membership-product", "membership-unparsable"])
def test_negative_max_degree_refused_before_any_input(capsys, path3, tmp_path, argv):
    """One refusal for every subcommand that takes the flag, before the complex
    file, the polynomial or any presentation is read."""
    files = {"MISSING": str(tmp_path / "missing.json"), "PATH3": path3}
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", "error: --max-degree must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--max-degree", "2"],
    ["verify", "--n", "2", "--max-degree", "-1"],
    ["verify", "--complex", "MISSING", "--max-degree", "-1"],
    ["verify", "--complex", "PATH3", "--max-degree", "-5",
     "--checks", "proposition,theorem,corollary"],
    ["verify", "--complex", "PATH3", "--max-degree", "-5",
     "--checks", "presentation_equivalence"],
], ids=["verify-default-degree", "verify-n", "verify-missing", "verify-graph-checks",
        "verify-equivalence"])
def test_verify_takes_no_degree(capsys, path3, tmp_path, argv):
    """Every verify check decides its claim in all degrees, so the flag is a
    usage error, refused before the complex file is read."""
    files = {"MISSING": str(tmp_path / "missing.json"), "PATH3": path3}
    with pytest.raises(SystemExit) as exc:
        cli.main([files.get(a, a) for a in argv])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --max-degree" in out.err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, "closure", exhausted)
    code, out, err = run(capsys, ["closure", "--complex", "missing.json"])
    assert (code, out, err) == (2, "", "error: out of memory\n")


def readme_examples():
    """(argv, stdout) of each README example of relations, hilbert and
    membership: the command line and the `# ` lines printed under it."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    out = []
    for x, line in enumerate(lines):
        argv = shlex.split(line) if line.startswith("ncomplex ") else []
        if argv[1:2] and argv[1] in ("relations", "hilbert", "membership"):
            shown = list(takewhile(lambda s: s.startswith("# "), lines[x + 1:]))
            if shown:
                out.append((argv[1:], "".join(s[2:] + "\n" for s in shown)))
    return out


def test_readme_examples_print_what_readme_shows(capsys, monkeypatch, tmp_path,
                                                 path3, edgeless3):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["relations", "relations", "hilbert",
                                                "hilbert", "membership"]
    for argv, shown in examples:
        assert run(capsys, argv) == (0, shown, ""), argv
