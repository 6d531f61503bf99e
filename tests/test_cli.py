import contextlib
import importlib.resources
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fatflip.cli import main

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

SHIPPED_G1 = importlib.resources.files("fatflip") / "data" / "g1.fg"


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

    def test_pentagon_asserts_zero(self, capsys, g1_path):
        status, out, _ = run(capsys, "pentagon", g1_path, "--edges", "1,2",
                             "--cocycle", "all")
        assert status == 0
        assert "m total: 0 0" in out
        assert "j total: 0" in out
        assert "s total: 0" in out

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
    ], ids=["path-incoherent", "pentagon-three-boundaries", "eval-genus-0"])
    def test_no_traceback(self, capsys, tmp_path, text, argv, status,
                          message):
        p = tmp_path / "input"
        p.write_text(text)
        got, _, err = run(capsys, *[a.format(file=p) for a in argv])
        assert got == status
        assert message in err

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


class TestMarkingCommands:
    def test_check(self, capsys, g1_path):
        status, out, _ = run(capsys, "marking", "check", g1_path)
        assert status == 0
        assert out == "ok\n"

    def test_check_topological(self, capsys, g1_path):
        status, out, _ = run(capsys, "marking", "check", "--topological",
                             g1_path)
        assert status == 0

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

    def test_eval_inverse_flag(self, capsys, tmp_path):
        p = tmp_path / "bp.auto"
        p.write_text(BP_AUTO)
        status, out, _ = run(capsys, "earle", "eval", "--genus", "2",
                             "--auto", str(p), "--inverse")
        assert status == 0
        assert out == "2*B2\n"


class TestSelfTest:
    def test_small_run(self, capsys):
        status, out, _ = run(capsys, "selftest", "--seed", "7",
                             "--trials", "3")
        assert status == 0
        assert out.count("ok ") == 5

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run(capsys, "selftest", "--seed", "11", "--trials", "2")
        _, second, _ = run(capsys, "selftest", "--seed", "11", "--trials", "2")
        assert first == second
