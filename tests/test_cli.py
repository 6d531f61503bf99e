import contextlib
import importlib.resources
import io
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fatflip
from fatflip import cocycles, flipgraph, markings, selftest
from fatflip.abelian import KElement
from fatflip.cli import main
from fatflip.earle import reference_bp_automorphism
from fatflip.fatgraph import oe
from fatflip.graphio import format_graph, parse_graph
from fatflip.intlinalg import LinAlgError, solve_transform
from fatflip.markings import (Marking, MarkingError, SymplecticForm,
                              canonical_h_marking, is_topological_h)
from fatflip.randgen import random_coherent_marking, standard_surface_graph
from fatflip.words import WordError, reduce_word

G1_FILE = """\
fatgraph v1
vertex 0: 0-
vertex 1: 0+ 1+ 3-
vertex 2: 3+ 2+ 4-
vertex 3: 4+ 1- 2-
tail 0+
marking rank 2
mark 1+: 0 1
mark 2+: 1 0
mark 3+: 0 1
mark 4+: 1 1
mark 0+: 0 0
"""

BP_AUTO = """\
a1 -> a2 b2' a2' b1 a1 b1' a1' a1 a1 b1 a1' b1' a2 b2 a2'
b1 -> a2 b2' a2' b1 a1 b1' a1' b1 a1 b1 a1' b1' a2 b2 a2'
a2 -> a2 b2' a2' b1 a1 b1' a1' a2 b2
b2 -> b2
"""


# genus 0 with three boundary cycles and no marking section
THREE_BOUNDARY_FILE = """\
fatgraph v1
vertex 0: 0-
vertex 1: 0+ 1+ 2-
vertex 2: 2+ 3+ 4-
vertex 3: 4+ 3- 1-
tail 0+
"""

# genus 0 with three boundary cycles and a coherent rank-2 marking
MARKED_THREE_BOUNDARY_FILE = """\
fatgraph v1
vertex 0: 0-
vertex 1: 0+ 1+ 2-
vertex 2: 2+ 3+ 4+
vertex 3: 1- 4- 3-
tail 0+
marking rank 2
mark 0+: 0 0
mark 1+: 1 0
mark 2+: 1 0
mark 3+: 0 1
mark 4+: -1 -1
"""

SHIPPED_G1 = importlib.resources.files("fatflip") / "data" / "g1.fg"

# genus 2, a canonical marking moved by a unimodular map: values with
# several nonzero coordinates of both signs
G2_FILE = """\
fatgraph v1
vertex 0: 0-
vertex 1: 15+ 4+ 6+
vertex 2: 14- 12- 9-
vertex 3: 16- 11+ 9+
vertex 4: 6- 3- 8+
vertex 5: 16+ 0+ 8-
vertex 6: 12+ 11- 4-
vertex 7: 15- 14+ 3+
tail 0+
marking rank 4
mark 0+: 0 0 0 0
mark 3+: -2 0 1 1
mark 4+: 2 -1 0 0
mark 6+: -1 1 0 0
mark 8+: -3 1 1 1
mark 9+: -2 1 0 1
mark 11+: -1 0 1 0
mark 12+: 1 -1 1 0
mark 14+: 1 0 -1 -1
mark 15+: -1 0 0 0
mark 16+: -3 1 1 1
"""
G2_FLIPS = "16,4,17,11,3,18,6"
DATA = Path(__file__).resolve().parent / "data"


def _swap_coordinates(text):
    graph, marking = parse_graph(text)
    return format_graph(graph, marking.transform([[0, 1], [1, 0]]))


# coherent and surjective, but the swap reverses the sign of the pairing
SWAPPED_G1 = _swap_coordinates(SHIPPED_G1.read_text())


@pytest.fixture
def g1_path(tmp_path):
    p = tmp_path / "g1.fg"
    p.write_text(G1_FILE)
    return str(p)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestBasics:
    def test_validate_ok(self, capsys, g1_path):
        status, out, _ = run(capsys, "validate", g1_path)
        assert status == 0
        assert out == "ok\n"

    def test_validate_failure_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.fg"
        p.write_text("fatgraph v1\nvertex 0: 0-\nvertex 1: 0+\ntail 0+\n")
        status, _, err = run(capsys, "validate", str(p))
        assert status == 1
        assert "univalent" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "broken.fg"
        p.write_text("not a fatgraph file\n")
        status, _, err = run(capsys, "validate", str(p))
        assert status == 2
        assert "parse error" in err

    # a byte that no UTF-8 text holds, after a valid header line
    NOT_UTF8 = b"fatgraph v1\n# \xff\n"
    NOT_UTF8_ERROR = ("'utf-8' codec can't decode byte 0xff in position 14: "
                      "invalid start byte\n")

    @pytest.mark.parametrize("argv", [
        ["info", "{file}"],
        ["earle", "eval", "--genus", "2", "--auto", "{file}"],
    ], ids=["graph-file", "auto-file"])
    def test_not_utf8_file_exit_2(self, capsys, tmp_path, argv):
        p = tmp_path / "input"
        p.write_bytes(self.NOT_UTF8)
        status, out, err = run(capsys, *[a.format(file=p) for a in argv])
        assert (status, out) == (2, "")
        assert err == "fatflip: parse error: %s: %s" % (p, self.NOT_UTF8_ERROR)

    def test_not_utf8_stdin_exit_2(self, capsys):
        # stdin is read as UTF-8 like a file, whatever its own encoding
        stdin = io.TextIOWrapper(io.BytesIO(self.NOT_UTF8), encoding="latin-1")
        with mock.patch.object(sys, "stdin", stdin):
            status, out, err = run(capsys, "info", "-")
        assert (status, out) == (2, "")
        assert err == "fatflip: parse error: -: %s" % self.NOT_UTF8_ERROR

    @pytest.mark.parametrize("command", ["validate", "info"])
    @pytest.mark.parametrize("bad_mark", ["mark 9+: 0 0", "mark 1+: 0 1",
                                          "mark 1-: 5 5"])
    def test_bad_mark_line_exit_2(self, capsys, tmp_path, command, bad_mark):
        text = (importlib.resources.files("fatflip") / "data" / "g1.fg") \
            .read_text()
        p = tmp_path / "bad_mark.fg"
        p.write_text(text + bad_mark + "\n")
        status, _, err = run(capsys, command, str(p))
        assert status == 2
        assert "parse error: line 14" in err
        assert "Traceback" not in err

    def test_info(self, capsys, g1_path):
        status, out, _ = run(capsys, "info", g1_path)
        assert status == 0
        assert "genus: 1" in out
        assert "boundary number: 1" in out
        assert "boundary word 0: 0+ 1- 2+ 4+ 1+ 3+ 2- 4- 3- 0-" in out

    def test_info_tsv(self, capsys, g1_path):
        status, out, _ = run(capsys, "info", "--format", "tsv", g1_path)
        assert status == 0
        assert "genus\t1" in out

    def test_info_rejects_a_disconnected_graph(self, capsys, tmp_path):
        # g1 beside a genus-1 theta: 2 - b - V + E = 2 would read as
        # genus 1, though each of the two components has genus 1
        p = tmp_path / "two.fg"
        p.write_text(G1_FILE.split("tail")[0]
                     + "vertex 4: 5+ 6+ 7+\nvertex 5: 5- 6- 7-\ntail 0+\n")
        status, out, err = run(capsys, "info", str(p))
        assert (status, out) == (1, "")
        assert err == "fatflip: only 4 of 6 vertices reachable\n"

    def test_info_names_a_planar_extra_component(self, capsys, tmp_path):
        # the loose edge 1 reads 2g = -2 by Euler; the refusal names the
        # disconnection instead
        p = tmp_path / "loose.fg"
        p.write_text("fatgraph v1\nvertex 0: 0-\nvertex 1: 0+\n"
                     "vertex 2: 1+\nvertex 3: 1-\ntail 0+\n")
        status, out, err = run(capsys, "info", str(p))
        assert (status, out) == (1, "")
        assert err == "fatflip: only 2 of 4 vertices reachable\n"


class TestFlipAndPaths:
    def test_flip_round_trips(self, capsys, g1_path, tmp_path):
        status, out, _ = run(capsys, "flip", g1_path, "--edge", "1")
        assert status == 0
        assert out.startswith("fatgraph v1")
        # the output re-parses and has the same shape
        p2 = tmp_path / "flipped.fg"
        p2.write_text(out)
        status, out2, _ = run(capsys, "info", str(p2))
        assert status == 0
        assert "genus: 1" in out2

    def test_flip_tail_fails(self, capsys, g1_path):
        status, _, err = run(capsys, "flip", g1_path, "--edge", "0")
        assert status == 1
        assert "tail" in err

    def test_path_totals(self, capsys, g1_path):
        status, out, _ = run(capsys, "path", g1_path, "--flips", "1",
                             "--cocycle", "m")
        assert status == 0
        # one flip along edge 1: value mu(a) + mu(c) = mu(3-) + mu(2-)
        assert "m total: -1 -1" in out

    def test_path_totals_equal_path_sum(self, capsys, tmp_path):
        import random
        from fatflip.cocycles import path_sum
        from fatflip.flips import apply_path
        from fatflip.markings import canonical_h_marking
        from fatflip.randgen import random_flip_path, random_graph
        rng = random.Random(37)
        graph = random_graph(3, rng)
        marking, _ = canonical_h_marking(graph)
        edges = [ctx.edge.edge for ctx in random_flip_path(graph, 60,
                                                           rng).steps]
        p = tmp_path / "g3.fg"
        p.write_text(format_graph(graph, marking))
        status, out, _ = run(capsys, "path", str(p), "--flips",
                             ",".join(map(str, edges)), "--cocycle", "all")
        assert status == 0
        graph, marking = parse_graph(p.read_text())
        path = apply_path(graph, edges)
        totals = [line for line in out.splitlines() if " total: " in line]
        assert totals == ["%s total: %s" % (which,
                                            path_sum(path, marking, which)[0])
                          for which in "mjs"]
        assert not all(line.endswith(": 0") for line in totals[1:])

    @pytest.mark.parametrize("fmt, expected", [("plain", "path_all_g2.txt"),
                                               ("tsv", "path_all_g2.tsv")])
    def test_path_output_pinned(self, capsys, tmp_path, fmt, expected):
        p = tmp_path / "g2.fg"
        p.write_text(G2_FILE)
        status, out, err = run(capsys, "path", str(p), "--flips", G2_FLIPS,
                               "--cocycle", "all", "--format", fmt)
        assert (status, err) == (0, "")
        assert out == (DATA / expected).read_text()

    @pytest.mark.parametrize("old, new, out, err", [
        # incoherent at head(4-), the second head of step 1
        ("mark 12+: 1 -1 1 0", "mark 12+: 1 -1 1 1",
         "m step 0 flip 16+ a 0+ b 8- c 11+ d 9+ new 17+: -1 0 1 0\n",
         "fatflip: step 1: marking incoherent at the head of 4-\n"),
        # incoherent at head(16-), the second head of step 0
        ("mark 9+: -2 1 0 1", "mark 9+: -2 1 1 1", "",
         "fatflip: step 0: marking incoherent at the head of 16-\n"),
        ("mark 12+: 1 -1 1 0\n", "",
         "m step 0 flip 16+ a 0+ b 8- c 11+ d 9+ new 17+: -1 0 1 0\n",
         "fatflip: step 1: no value on 12+\n"),
    ], ids=["incoherent-step-1", "incoherent-step-0", "missing-edge"])
    def test_path_failure_pinned(self, capsys, tmp_path, old, new, out, err):
        p = tmp_path / "g2.fg"
        p.write_text(G2_FILE.replace(old, new))
        assert run(capsys, "path", str(p), "--flips", G2_FLIPS,
                   "--cocycle", "all") == (1, out, err)

    def test_pentagon_asserts_zero(self, capsys, g1_path):
        status, out, _ = run(capsys, "pentagon", g1_path, "--edges", "1,2",
                             "--cocycle", "all")
        assert status == 0
        assert "m total: 0 0" in out
        assert "j total: 0" in out
        assert "s total: 0" in out

    def test_pentagon_walks_its_loop_once(self, capsys, g1_path,
                                          monkeypatch):
        # all three totals come from one walk of the loop
        walkers = []
        init = markings._Walker.__init__

        def counted(self, marking):
            walkers.append(marking)
            init(self, marking)
        monkeypatch.setattr(markings._Walker, "__init__", counted)
        status, _, _ = run(capsys, "pentagon", g1_path, "--edges", "1,2",
                           "--cocycle", "all")
        assert (status, len(walkers)) == (0, 1)

    def test_pentagon_three_boundary_cycles(self, capsys, tmp_path):
        p = tmp_path / "three.fg"
        p.write_text(MARKED_THREE_BOUNDARY_FILE)
        status, out, _ = run(capsys, "pentagon", str(p), "--edges", "1,2")
        assert status == 0
        assert out == "m total: 0 0\nj total: 0\ns total: 0\n"

    def test_pentagon_rejects_disjoint_pair(self, capsys, g1_path):
        status, _, err = run(capsys, "pentagon", g1_path, "--edges", "2,4")
        assert status == 1

    def test_pentagon_genus2_unmarked_file(self, capsys, tmp_path):
        # no marking section: the canonical homology marking is used
        from fatflip.graphio import format_graph
        from fatflip.randgen import standard_surface_graph
        from fatflip.flips import adjacent_flippable_pairs
        g2 = standard_surface_graph(2)
        f, g = adjacent_flippable_pairs(g2)[0]
        p = tmp_path / "g2.fg"
        p.write_text(format_graph(g2))
        status, out, _ = run(capsys, "pentagon", str(p), "--edges",
                             "%d,%d" % (f, g), "--cocycle", "j")
        assert status == 0
        assert "j total: 0" in out


class TestExitStatus:
    @pytest.mark.parametrize("text, argv, status, message", [
        # a marking that is incoherent at vertex 1 only, reached at step 1
        (SHIPPED_G1.read_text().replace("mark 0+: 0 0", "mark 0+: 1 0"),
         ["path", "{file}", "--flips", "4,1"], 1,
         "step 1: marking incoherent at the head of 1+"),
        (THREE_BOUNDARY_FILE, ["pentagon", "{file}", "--edges", "1,2"], 1,
         "boundary number 1"),
        (BP_AUTO, ["earle", "eval", "--genus", "0", "--auto", "{file}"], 2,
         "--genus must be at least 1"),
        ("a1 -> a1 a1\nb1 -> b1\na2 -> a2\nb2 -> b2\n",
         ["earle", "eval", "--genus", "2", "--auto", "{file}"], 1,
         "fatflip: d-difference is not additive on a1 and b1\n"),
        ("a1 -> a1\nb1 -> b1\na2 -> a2\nb2 -> b2\na3 -> a3 a3\n",
         ["earle", "eval", "--genus", "2", "--auto", "{file}"], 1,
         "fatflip: map gives an image for a3, outside genus 2\n"),
        ("", ["enumerate", "--genus", "0"], 2, "--genus must be at least 1"),
        ("", ["enumerate", "--genus", "2", "--max-classes", "0"], 2,
         "--max-classes must be at least 1"),
        ("", ["enumerate", "--genus", "4"], 1, "give --max-classes"),
    ], ids=["path-incoherent", "pentagon-three-boundaries", "eval-genus-0",
            "eval-not-additive", "eval-image-outside-genus",
            "enumerate-genus-0", "enumerate-max-classes-0",
            "enumerate-genus-4-whole"])
    def test_no_traceback(self, capsys, tmp_path, text, argv, status,
                          message):
        p = tmp_path / "input"
        p.write_text(text)
        got, _, err = run(capsys, *[a.format(file=p) for a in argv])
        assert got == status
        assert message in err

    @pytest.mark.parametrize("argv, status, message", [
        (["validate", "{missing}"], 2,
         "fatflip: [Errno 2] No such file or directory: '{missing}'\n"),
        (["path", "{g1}", "--flips", "1,x"], 2,
         "fatflip: bad edge list '1,x'\n"),
        (["earle", "d", "--word", "a b1"], 1,
         "fatflip: mixed bare and indexed generators\n"),
        (["enumerate", "--genus", "0"], 2,
         "fatflip: --genus must be at least 1\n"),
        (["enumerate", "--genus", "1", "--max-classes", "0"], 2,
         "fatflip: --max-classes must be at least 1\n"),
        (["enumerate", "--genus", "4"], 1,
         "fatflip: the whole flip graph of genus 4 is out of reach; "
         "give --max-classes\n"),
    ], ids=["missing-file", "bad-edge-list", "mixed-generators",
            "enumerate-genus-0", "enumerate-max-classes-0",
            "enumerate-genus-4-whole"])
    def test_refusals_pinned(self, capsys, tmp_path, g1_path, argv, status,
                             message):
        names = {"missing": tmp_path / "missing.fg", "g1": g1_path}
        got = run(capsys, *[a.format(**names) for a in argv])
        assert got == (status, "", message.format(**names))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(command=st.sampled_from(["path", "pentagon"]),
           edges=st.lists(st.integers(-2, 12), max_size=8),
           cocycle=st.sampled_from(["m", "j", "s", "all"]))
    def test_arbitrary_edge_lists(self, command, edges, cocycle):
        option = "--flips" if command == "path" else "--edges"
        flips = ",".join(map(str, edges))
        argv = [command, str(SHIPPED_G1), "%s=%s" % (option, flips),
                "--cocycle", cocycle]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2)
        assert (status == 0) == (err.getvalue() == "")


G1_LINES = SHIPPED_G1.read_text().splitlines()
FUZZ_TOKENS = ["0+", "0-", "1+", "1-", "2-", "3+", "4+", "4-", "7+", "0", "1",
               "-1", "2", "x", "vertex", "mark", "rank", "4:", "3+:", "#"]
# "-" reads the graph file from stdin
FUZZ_COMMANDS = [["validate", "-"], ["info", "-"], ["flip", "-", "--edge", "1"],
                 ["path", "-", "--flips", "1,2"],
                 ["marking", "check", "-", "--topological"],
                 ["marking", "canonical", "-"],
                 ["pentagon", "-", "--edges", "1,2"]]


@st.composite
def mutated_g1(draw):
    """g1.fg with a few lines deleted, duplicated or edited token-wise."""
    lines = list(G1_LINES)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        kind = draw(st.sampled_from(["delete", "duplicate", "replace",
                                     "append", "swap"]))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
            continue
        if kind == "duplicate":
            lines.insert(i, lines[i])
            continue
        j = draw(st.integers(0, max(len(toks) - 1, 0)))
        if kind == "swap" and toks:
            k = draw(st.integers(0, len(toks) - 1))
            toks[j], toks[k] = toks[k], toks[j]
        elif kind == "replace" and toks:
            toks[j] = draw(st.sampled_from(FUZZ_TOKENS))
        else:
            toks.append(draw(st.sampled_from(FUZZ_TOKENS)))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


class TestMutatedFiles:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(text=mutated_g1())
    def test_exit_status_contract(self, text):
        for argv in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = main(argv)
            assert status in (0, 1, 2), argv


class TestMarkingCommands:
    def test_check(self, capsys, g1_path):
        status, out, _ = run(capsys, "marking", "check", g1_path)
        assert status == 0
        assert out == "ok\n"

    def test_check_topological(self, capsys, g1_path):
        status, out, _ = run(capsys, "marking", "check", "--topological",
                             g1_path)
        assert status == 0

    @pytest.mark.parametrize("text, status, out, message", [
        (SHIPPED_G1.read_text(), 0, "ok\n", ""),
        (MARKED_THREE_BOUNDARY_FILE, 1, "",
         "boundary order needs boundary number 1, got 3"),
        (SWAPPED_G1, 1, "", "violates the intersection criterion"),
    ], ids=["shipped-g1", "three-boundaries", "swapped-coordinates"])
    def test_check_topological_verdicts(self, capsys, tmp_path, text, status,
                                        out, message):
        p = tmp_path / "input.fg"
        p.write_text(text)
        got, got_out, err = run(capsys, "marking", "check", "--topological",
                                str(p))
        assert (got, got_out) == (status, out)
        assert message in err

    def test_check_missing_marking(self, capsys, tmp_path):
        p = tmp_path / "plain.fg"
        p.write_text(G1_FILE.split("marking")[0])
        status, _, err = run(capsys, "marking", "check", str(p))
        assert status == 1

    def test_canonical(self, capsys, tmp_path):
        p = tmp_path / "plain.fg"
        p.write_text(G1_FILE.split("marking")[0])
        status, out, _ = run(capsys, "marking", "canonical", str(p))
        assert status == 0
        assert "marking rank 2" in out


class TestEarleCommands:
    def test_d_value(self, capsys):
        status, out, _ = run(capsys, "earle", "d", "--word", "b a b' a'")
        assert status == 0
        assert out == "-2\n"

    def test_d_surface_word(self, capsys):
        status, out, _ = run(capsys, "earle", "d", "--word",
                             "b1 a1 b1' a1' b2 a2 b2' a2'")
        assert status == 0
        assert out == "-4\n"

    def test_eval(self, capsys, tmp_path):
        p = tmp_path / "bp.auto"
        p.write_text(BP_AUTO)
        status, out, _ = run(capsys, "earle", "eval", "--genus", "2",
                             "--auto", str(p))
        assert status == 0
        assert out == "-2*B2\n"

    def test_eval_refuses_a_small_map_at_a_huge_genus(self, capsys,
                                                      tmp_path):
        # the first missing image is found without reading the genus's
        # 2g generators, so this exits at once instead of running out
        # of memory
        p = tmp_path / "small.auto"
        p.write_text("a1 -> a1\nb1 -> b1\n")
        start = time.perf_counter()
        status, out, err = run(capsys, "earle", "eval", "--genus",
                               "1000000000", "--auto", str(p))
        assert time.perf_counter() - start < 1.0
        assert (status, out, err) == (
            1, "", "fatflip: no image for generator a2\n")

    def test_eval_inverse_flag(self, capsys, tmp_path):
        p = tmp_path / "bp.auto"
        p.write_text(BP_AUTO)
        status, out, _ = run(capsys, "earle", "eval", "--genus", "2",
                             "--auto", str(p), "--inverse")
        assert status == 0
        assert out == "2*B2\n"


class TestEnumerate:
    def test_genus2_solves_every_row(self, capsys):
        status, out, err = run(capsys, "enumerate", "--genus", "2")
        assert (status, err) == (0, "")
        got = dict(line.split(": ") for line in out.splitlines())
        assert (got["classes"], got["flips"]) == ("105", "1050")
        solution = [int(x) for x in got["h"].split()] + [int(got["k"])]
        rows = set().union(*(flipgraph.identity_rows(ex.flips)
                             for ex in flipgraph.expand(2)))
        assert got["rows"] == str(len(rows))
        assert all(sum(map(operator.mul, row, solution)) == row[-1]
                   for row in rows)

    def test_undetermined_factor_is_reported(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--genus", "1")
        assert status == 0
        assert out.splitlines()[-3:] == ["rank: 2 of 3", "invariants: 1 1",
                                         "h, k: undetermined"]

    def test_inconsistent_rows_fail(self, capsys, monkeypatch):
        def m_as_a_minus_c(out, xa, sa, xb, sb, xc, sc, xd, sd):
            cocycles._add_m(out, xa, sa, xb, sb, xc, -sc, xd, sd)
        monkeypatch.setitem(cocycles._KERNELS, "m", m_as_a_minus_c)
        status, _, err = run(capsys, "enumerate", "--genus", "2")
        assert status == 1
        assert err == ("fatflip: the identity rows have no integral "
                       "solution\n")

    def test_whole_genus4_refused_before_any_flip(self, capsys, monkeypatch):
        monkeypatch.setattr(flipgraph, "flip", None)
        status, out, _ = run(capsys, "enumerate", "--genus", "4")
        assert (status, out) == (1, "")


class TestSelfTest:
    def test_small_run(self, capsys):
        status, out, _ = run(capsys, "selftest", "--seed", "7",
                             "--trials", "3")
        assert status == 0
        assert out.splitlines() == [
            "ok structural invariance (30 flips)",
            "ok relation loops (9 loops, cocycles m j s)",
            "ok homology markings (3 graphs, 12 flips each)",
            "ok equivariance (3 random transforms)",
            "ok word algebra and bounding-pair values (3 words)",
        ]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, capsys, trials):
        status, out, err = run(capsys, "selftest", "--trials", trials)
        assert status == 2
        assert out == ""
        assert err == "fatflip: --trials must be at least 1\n"

    def test_first_failure_stops_the_run(self, monkeypatch):
        def fail(*args):
            raise selftest.SelfTestFailure("injected")

        monkeypatch.setattr(selftest, "check_relation_loop", fail)
        lines = []
        assert selftest.run_selftest(7, 3, log=lines.append) == 1
        assert lines == ["ok structural invariance (30 flips)",
                         "FAIL relation-loops: injected"]

    def test_broken_marking_logs_a_failure(self, monkeypatch):
        make = selftest.random_coherent_marking

        def doubled(graph, rank, rng):
            # double the value on the last edge with a nonzero value
            marking = make(graph, rank, rng)
            values = dict(marking.values)
            x = max(x for x, v in values.items() if not v.is_zero())
            values[x] = values[x] + values[x]
            return Marking._of_edges(marking.rank, values)

        monkeypatch.setattr(selftest, "random_coherent_marking", doubled)
        lines = []
        assert selftest.run_selftest(7, 3, log=lines.append) == 1
        assert lines[-1].startswith("FAIL structural: vertex")

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run(capsys, "selftest", "--seed", "11", "--trials", "2")
        _, second, _ = run(capsys, "selftest", "--seed", "11", "--trials", "2")
        assert first == second


# incoherent at vertex 1 only: the path writes step 0, then fails at step 1
INCOHERENT_G1 = SHIPPED_G1.read_text().replace("mark 0+: 0 0", "mark 0+: 1 0")


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv, status, message", [
        (["selftest", "--trials", "1"], 1, ""),
        (["enumerate", "--genus", "1"], 1, ""),
        # buffered, the refusal comes before the write that fails
        (["path", "{file}", "--flips", "4,1"], 1,
         "fatflip: step 1: marking incoherent at the head of 1+\n"),
        # no write: the usage status stands
        (["validate", "{missing}"], 2,
         "fatflip: [Errno 2] No such file or directory: '{missing}'\n"),
    ], ids=["selftest", "enumerate", "path-incoherent", "missing-file"])
    def test_gone_reader_exits_without_traceback(self, tmp_path, buffered,
                                                 argv, status, message):
        # stdout is the write end of a pipe whose read end is closed, so
        # the first write that reaches it fails, however fast the run
        names = {"file": tmp_path / "bad.fg", "missing": tmp_path / "no.fg"}
        names["file"].write_text(INCOHERENT_G1)
        src = Path(fatflip.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONUNBUFFERED="" if buffered else "1")
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from fatflip.cli import "
                 "main; sys.exit(main())", *[a.format(**names) for a in argv]],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        if not buffered and status == 1:
            message = ""  # the first write fails, before any refusal
        assert (proc.returncode, proc.stderr.decode()) == (
            status, message.format(**names))


def _cli(text, *argv):
    """A call that runs the CLI on ``text`` as ``{file}``, and returns
    its status, stdout and stderr."""
    def call(tmp_path):
        path = tmp_path / "input"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([a.format(file=path, g1=SHIPPED_G1) for a in argv])
        return status, out.getvalue(), err.getvalue()
    return call


def _off_form(_):
    graph = standard_surface_graph(1)
    marking, _ = canonical_h_marking(graph)
    return is_topological_h(graph, marking, SymplecticForm.standard(2))


EVAL = ("earle", "eval", "--genus", "1", "--auto", "{file}")


@pytest.mark.parametrize("call, expected", [
    (_cli("a1 -> a1\nb1 b1\n", *EVAL),
     (1, "", "fatflip: line 2: expected 'gen -> word'\n")),
    (_cli("a1 -> a1\na1 -> b1\n", *EVAL),
     (1, "", "fatflip: line 2: duplicate image for a1\n")),
    (_cli("", "pentagon", "{g1}", "--edges", "1,1"),
     (1, "", "fatflip: pentagon needs two distinct edges\n")),
    (lambda _: Marking(2, {oe(1, 1): KElement((1, 2, 3))}),
     (MarkingError, "value on 1+ has rank 3, marking has 2")),
    (lambda _: KElement(()), (ValueError, "rank must be at least 1")),
    (lambda _: KElement.basis(4, 4), (ValueError, "basis index out of range")),
    (lambda _: solve_transform([[1]], [[1], [2]]),
     (LinAlgError, "need equally many x and y vectors")),
    (lambda _: reduce_word([("a", 2)]),
     (WordError, "letter sign must be +-1")),
    (lambda _: reference_bp_automorphism(1),
     (WordError, "the bounding-pair map needs genus >= 2")),
    (lambda _: standard_surface_graph(0),
     (ValueError, "genus must be at least 1")),
    (lambda _: random_coherent_marking(standard_surface_graph(1), 5,
                                       random.Random(0)),
     (ValueError, "rank 5 is not between 1 and the edge class rank 2")),
    (_off_form, (MarkingError, "form size does not match the marking rank")),
], ids=["eval-no-arrow", "eval-duplicate-image", "pentagon-same-edge",
        "marking-rank", "kelement-rank-0", "kelement-basis-index",
        "solve-transform-counts", "word-letter-sign", "bp-map-genus-1",
        "surface-genus-0", "random-marking-rank", "topological-form-size"])
def test_public_refusals_pinned(tmp_path, call, expected):
    # reachable public error paths that no other test runs
    try:
        got = call(tmp_path)
    except ValueError as err:
        got = type(err), str(err)
    assert got == expected
