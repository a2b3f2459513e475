"""The command-line surface: exit codes, JSON-lines output, error paths."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dualham import cli
from dualham.cli import main
from dualham.gen import gen_bipyramid
from oracles import golden_two_squares


@pytest.fixture()
def octa_file(tmp_path, octahedron):
    p = tmp_path / "octa.json"
    p.write_text(octahedron.to_json())
    return str(p)


@pytest.fixture()
def bipyr_file(tmp_path, bipyramid6):
    p = tmp_path / "bipyr.json"
    p.write_text(bipyramid6.to_json())
    return str(p)


@pytest.fixture()
def squares_file(tmp_path):
    g = golden_two_squares()
    # alpha side of the typed bipartition, with an explicit colouring
    p = tmp_path / "squares.json"
    p.write_text(json.dumps({"edges": g.edges(), "a": {0: 1, 2: 2, 5: 1, 7: 2, 9: 1}}))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, rows, captured.err


class TestCheck:
    def test_even_tri_pass(self, capsys, octa_file):
        code, rows, err = run(capsys, ["check", octa_file, "--family", "even-tri"])
        assert code == 0
        assert rows[-1]["checks"][0]["passed"]
        assert "ok" in err

    def test_even_tri_fail(self, capsys, tmp_path):
        from dualham.embed import EmbeddedGraph
        from dualham.gen import TETRAHEDRON

        p = tmp_path / "tetra.json"
        p.write_text(EmbeddedGraph.build(TETRAHEDRON).to_json())
        code, rows, err = run(capsys, ["check", str(p), "--family", "even-tri"])
        assert code == 1
        assert "FAIL" in err

    def test_multi4_with_witness(self, capsys, tmp_path):
        p = tmp_path / "c6.json"
        p.write_text(json.dumps({"edges": [[i, (i + 1) % 6] for i in range(6)]}))
        code, rows, _ = run(capsys, ["check", str(p), "--family", "multi4"])
        assert code == 1
        (check,) = rows[-1]["checks"]
        assert len(check["witness"]) % 4 != 0

    def test_hypothesis_family(self, capsys, bipyr_file):
        code, rows, _ = run(
            capsys, ["check", bipyr_file, "--family", "barnette-hypothesis"]
        )
        assert code == 0
        assert all(c["passed"] for c in rows[-1]["checks"])

    def test_hypothesis_checks_are_reported_apart(self, capsys, tmp_path, catalog13_14):
        # H here is outside the family, and its one component is 2-connected
        p = tmp_path / "g13.json"
        p.write_text(catalog13_14[13][7].to_json())
        code, rows, _ = run(capsys, ["check", str(p), "--family", "barnette-hypothesis"])
        assert code == 1
        assert {c["name"]: c["passed"] for c in rows[-1]["checks"]} == {
            "even-triangulation": True,
            "h-all-cycles-0-mod-4": False,
            "h-components-2-connected": True,
        }

    def test_multi4_witness_comes_from_the_deciding_routine(self, capsys, tmp_path,
                                                            monkeypatch):
        # the depth-first filter finds the triangle; no second enumeration
        # may run, whatever the cap
        from dualham.ugraph import Graph

        def refused(self, cap=None):
            raise AssertionError("simple_cycles ran")

        monkeypatch.setattr(Graph, "simple_cycles", refused)
        p = tmp_path / "square-and-triangle.json"
        p.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 0],
                                           [4, 5], [5, 6], [6, 4]]}))
        code, rows, _ = run(capsys, ["--cap", "1", "check", str(p), "--family", "multi4"])
        assert code == 1
        (check,) = rows[-1]["checks"]
        assert sorted(check["witness"]) == [4, 5, 6]

    def test_cactus_passes_at_the_least_cap_with_no_enumeration(self, capsys, tmp_path,
                                                                monkeypatch):
        # two 4-cycles at a cut vertex, then a bridge to an 8-cycle: each
        # block is one cycle, which the depth-first filter checks
        from dualham.ugraph import Graph

        def refused(self, cap=None):
            raise AssertionError("simple_cycles ran")

        monkeypatch.setattr(Graph, "simple_cycles", refused)
        ring = [7, 8, 9, 10, 11, 12, 13, 14]
        edges = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 4], [4, 5], [5, 6], [6, 0], [2, 7]]
        edges += [[u, ring[(i + 1) % 8]] for i, u in enumerate(ring)]
        p = tmp_path / "cactus.json"
        p.write_text(json.dumps({"edges": edges}))
        code, rows, _ = run(capsys, ["--cap", "1", "check", str(p), "--family", "multi4"])
        assert code == 0 and rows[-1]["checks"][0]["passed"]

    def test_theta_of_two_squares_fails_with_its_6_cycle(self, capsys, tmp_path):
        # two 4-cycles sharing the edge 0-1; only enumeration finds the 6
        p = tmp_path / "theta.json"
        p.write_text(json.dumps({"edges": [[0, 1], [0, 2], [2, 3], [3, 1],
                                           [0, 4], [4, 5], [5, 1]]}))
        code, rows, _ = run(capsys, ["check", str(p), "--family", "multi4"])
        assert code == 1
        (check,) = rows[-1]["checks"]
        assert sorted(check["witness"]) == [0, 1, 2, 3, 4, 5]

    def test_hypothesis_check_reports_an_h_witness(self, capsys, tmp_path, catalog13_14):
        from dualham.gen import big_vertex_graph

        g = catalog13_14[13][7]
        p = tmp_path / "g13.json"
        p.write_text(g.to_json())
        code, rows, _ = run(capsys, ["check", str(p), "--family", "barnette-hypothesis"])
        assert code == 1
        (check,) = [c for c in rows[-1]["checks"] if c["name"] == "h-all-cycles-0-mod-4"]
        cyc = check["witness"]
        h, _ = big_vertex_graph(g)
        assert len(set(cyc)) == len(cyc) >= 3 and len(cyc) % 4 != 0
        assert all(h.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent", "--family", "even-tri"])
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("command, text", [
    (["check", "--family", "even-tri"], "[1, 2]"),
    (["check", "--family", "even-tri"], '{"n": 2, "rotation": 5}'),
    (["check", "--family", "even-tri"], '{"n": 1, "rotation": [null]}'),
    (["color"], '{"edges": [[0, 1], [1, 2]], "a": [1]}'),
    (["color"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "a": {"0": 1, "2": 7}}'),
    (["color"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "a": {"0": 1, "1": 2}}'),
    (["color"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "a": {"0": 1, "99": 2}}'),
    (["color"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "a": {"0": 1}}'),
    (["color"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "a": {"0": 1, "2": true}}'),
    (["color"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "a": {"0": 1, "0_2": 2}}'),
    (["color"], '{"edges": [[0, 1.5], [1, 2], [2, 3], [3, 0]], "a": {"0": 1, "2": 2}}'),
    (["check", "--family", "multi4"], '{"edges": [[0, 1.5], [1, 2], [2, 3], [3, 0]]}'),
    (["check", "--family", "multi4"], '{"edges": [["0", 1], [1, 2], [2, 3], [3, 0]]}'),
    (["check", "--family", "multi4"], '{"edges": [["0", true], [1, 2], [2, 3], [3, 0]]}'),
    (["check", "--family", "multi4"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, false]]}'),
    (["gen", "--family", "multi4", "--size", "3"], None),
    (["gen", "--family", "bipyramid", "--size", "2001"], None),
    (["check", "--family", "even-tri"], b"\xff" + b'{"n": 0, "rotation": []}'),
    (["check", "--family", "even-tri"], "[" * 200000),
    (["color"], '{"edges": ' + "[" * 200000),
    (["--cap=0", "check", "--family", "multi4"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}'),
    (["--cap=-3", "check", "--family", "multi4"], '{"edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}'),
], ids=["not-an-object", "rotation-not-a-list", "row-not-a-list", "a-not-an-object",
        "a-colour-7", "a-adjacent-alpha", "a-vertex-not-in-graph", "a-adjacent-beta",
        "a-colour-true", "a-vertex-not-an-int", "color-edge-end-float", "edge-end-float", "edge-end-string",
        "edge-end-string-and-bool", "edge-end-false", "gen-multi4-size-3",
        "gen-bipyramid-size-2001", "not-utf8",
        "nested-too-deep", "color-nested-too-deep", "cap-0", "cap-minus-3"])
def test_malformed_input_exits_2(capsys, tmp_path, command, text):
    """Bad input file (text, or bytes that are not UTF-8), or (text None)
    a bad option of a file-less command."""
    argv = command
    if text is not None:
        p = tmp_path / "bad.json"
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text)
        # the file follows the subcommand; global options come before it
        at = next(i for i, word in enumerate(command) if not word.startswith("-")) + 1
        argv = [*command[:at], str(p), *command[at:]]
    code, rows, err = run(capsys, argv)
    assert code == 2 and not rows
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_rejected_before_any_work(capsys, tmp_path, cap):
    # a path has no cycle, so no enumeration could trip over the budget
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"edges": [[0, 1], [1, 2]]}))
    code, rows, err = run(capsys, ["--cap", cap, "check", str(p), "--family", "multi4"])
    assert code == 2 and not rows
    assert err == f"error: --cap must be at least 1, got {cap}\n"


class TestColor:
    def test_default_pin(self, capsys, squares_file):
        code, rows, _ = run(capsys, ["color", squares_file])
        assert code == 0
        assert set(rows[-1]["result"]["b"].values()) <= {1, 2}

    def test_explicit_pin(self, capsys, squares_file):
        code, rows, _ = run(capsys, ["color", squares_file, "--pin", "1=2"])
        assert code == 0
        assert rows[-1]["result"]["b"]["1"] == 2

    def test_pin_on_alpha_rejected(self, capsys, squares_file):
        code, _, err = run(capsys, ["color", squares_file, "--pin", "0=1"])
        assert code == 2

    @pytest.mark.parametrize("pin", ["1=3", "1=0", "99=1"])
    def test_pin_outside_contract_rejected(self, capsys, squares_file, pin):
        code, rows, err = run(capsys, ["color", squares_file, "--pin", pin])
        assert code == 2 and not rows
        assert "--pin" in err or "not in the graph" in err
        assert "Traceback" not in err

    def test_no_beta_vertex_rejected(self, capsys, tmp_path):
        p = tmp_path / "allalpha.json"
        p.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                 "a": {0: 1, 1: 2, 2: 1, 3: 2}}))
        code, rows, err = run(capsys, ["color", str(p)])
        assert code == 2 and not rows
        assert "Traceback" not in err

    def test_missing_alpha(self, capsys, tmp_path):
        p = tmp_path / "noa.json"
        p.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
        code, _, err = run(capsys, ["color", str(p)])
        assert code == 2
        assert err == 'error: input JSON must embed the alpha colouring as "a"\n'

    def test_empty_alpha_fails_the_bipartition_check(self, capsys, tmp_path):
        # an empty "a" is present, so it is checked, not reported missing
        p = tmp_path / "emptya.json"
        p.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 0]], "a": {}}))
        code, rows, err = run(capsys, ["color", str(p)])
        assert code == 2 and not rows
        assert err == ('error: "a" is not one side of a bipartition: edge 0,1 '
                       'has neither end in it\n')


class TestPartitionAndHamilton:
    def test_partition_face_sparse(self, capsys, bipyr_file):
        code, rows, _ = run(capsys, ["partition", bipyr_file])
        assert code == 0
        res = rows[-1]["result"]
        assert sorted(res["s"] + res["t"]) == list(range(8))

    def test_partition_with_edge(self, capsys, bipyr_file):
        # the pole 6 is the big class-3 end, given first or second
        for edge in ("6,0", "0,6"):
            code, rows, _ = run(capsys, ["partition", bipyr_file, "--with-edge", edge])
            assert code == 0
            res = rows[-1]["result"]
            assert (6 in res["s"]) == (0 in res["s"])

    def test_partition_bad_edge_syntax(self, capsys, bipyr_file):
        code, _, _ = run(capsys, ["partition", bipyr_file, "--with-edge", "6;0"])
        assert code == 2

    def test_partition_with_ineligible_edge(self, capsys, bipyr_file):
        # 0 is a small ring vertex, not a big class-3 one
        code, rows, err = run(capsys, ["partition", bipyr_file, "--with-edge", "0,1"])
        assert code == 2 and not rows
        assert "BadEdge" in err and "Traceback" not in err

    def test_hamilton_avoid_non_edge(self, capsys, bipyr_file):
        code, rows, err = run(capsys, ["hamilton", bipyr_file, "--avoid-edge", "0,999"])
        assert code == 2 and not rows
        assert "BadEdge" in err

    def test_hamilton_face_sparse(self, capsys, bipyr_file, bipyramid6):
        code, rows, _ = run(capsys, ["hamilton", bipyr_file])
        assert code == 0
        cycle = rows[-1]["result"]["cycle"]
        assert len(cycle) == len(bipyramid6.faces.faces)

    def test_hamilton_avoid_edge(self, capsys, bipyr_file, bipyramid6):
        from dualham.embed import dual

        d = dual(bipyramid6)
        e_star = d.edge_map[(0, 6)]
        code, rows, _ = run(
            capsys, ["hamilton", bipyr_file, "--avoid-edge", f"{e_star[0]},{e_star[1]}"]
        )
        assert code == 0
        cycle = rows[-1]["result"]["cycle"]
        k = len(cycle)
        edges = {tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)}
        assert tuple(sorted(e_star)) not in edges

    def test_partition_refuses_h_outside_the_family(self, capsys, tmp_path, h_not_in_family):
        p = tmp_path / "n13.json"
        p.write_text(h_not_in_family.to_json())
        code, rows, err = run(capsys, ["partition", str(p), "--with-edge", "4,2"])
        assert code == 2 and not rows
        assert "NotInFamilyH" in err and "Traceback" not in err

    def test_partition_refuses_h_not_2connected(self, capsys, tmp_path, h_not_2connected):
        p = tmp_path / "n9.json"
        p.write_text(h_not_2connected.to_json())
        code, rows, err = run(capsys, ["partition", str(p)])
        assert code == 2 and not rows
        assert "HComponentNot2Connected" in err and "Traceback" not in err

    def test_face_sparse_through_the_case_dispatch(self, capsys, tmp_path, even10):
        # a bipyramid takes the special case; even10 runs the fan paths
        p = tmp_path / "even10.json"
        p.write_text(even10.to_json())
        for command in ("partition", "hamilton"):
            code, rows, _ = run(capsys, [command, str(p), "--face-sparse"])
            assert code == 0 and all(c["passed"] for c in rows[-1]["checks"])

    @pytest.mark.parametrize("flag", [["--face-sparse"], ["--with-edge", "1,7"]])
    def test_partition_colours_the_triangulation_once(
        self, capsys, monkeypatch, tmp_path, even10, flag
    ):
        from dualham import embed, gen, treesplit

        real = embed.tri_partition
        calls = []

        def counted(g, *args, **kwargs):
            calls.append(g.n)
            return real(g, *args, **kwargs)

        for mod in (embed, gen, treesplit, cli):
            if hasattr(mod, "tri_partition"):
                monkeypatch.setattr(mod, "tri_partition", counted)
        p = tmp_path / "even10.json"
        p.write_text(even10.to_json())
        code, rows, _ = run(capsys, ["partition", str(p), *flag])
        assert code == 0 and all(c["passed"] for c in rows[-1]["checks"])
        assert calls == [10]

    def test_hamilton_refuses_a_non_triangulation(self, capsys, tmp_path):
        # checked before the dual is built: a 4-cycle's dual has multiple edges
        p = tmp_path / "c4.json"
        p.write_text(json.dumps({"n": 4, "rotation": [[1, 3], [2, 0], [3, 1], [0, 2]]}))
        code, rows, err = run(capsys, ["hamilton", str(p)])
        assert code == 2 and not rows
        assert "NotEvenTriangulation" in err


class TestGenAndSurvey:
    def test_gen_bipyramid(self, capsys):
        code, rows, _ = run(capsys, ["gen", "--family", "bipyramid", "--size", "3"])
        assert code == 0
        assert rows[0]["rotation"] == [list(r) for r in gen_bipyramid(3).rotation]

    def test_gen_even_tri(self, capsys):
        code, rows, err = run(capsys, ["gen", "--family", "even-tri", "--size", "8"])
        assert code == 0
        # stdout holds only the instance; the report line goes to stderr
        assert len(rows) == 1 and "rotation" in rows[0]
        assert json.loads(err.splitlines()[0])["result"]["count"] == 1

    def test_gen_feeds_check_and_hamilton(self, capsys, tmp_path):
        code, rows, _ = run(capsys, ["gen", "--family", "bipyramid", "--size", "3"])
        assert code == 0
        f = tmp_path / "bipyr.json"
        f.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, rows, _ = run(capsys, ["check", str(f), "--family", "even-tri"])
        assert code == 0 and rows[-1]["checks"][0]["passed"]
        from dualham.embed import dual

        e_star = dual(gen_bipyramid(3)).edge_map[(0, 6)]
        code, rows, _ = run(
            capsys, ["hamilton", str(f), "--avoid-edge", f"{e_star[0]},{e_star[1]}"]
        )
        assert code == 0 and all(c["passed"] for c in rows[-1]["checks"])

    def test_gen_multi4(self, capsys):
        code, rows, _ = run(
            capsys, ["gen", "--family", "multi4", "--size", "12", "--seed", "5"]
        )
        assert code == 0
        assert "edges" in rows[0]

    def test_gen_size_out_of_range(self, capsys):
        code, _, _ = run(capsys, ["gen", "--family", "even-tri", "--size", "99"])
        assert code == 2

    def test_sizes_past_max_tri_n_exit_2_without_generating(self, capsys, monkeypatch):
        # n = 15 has about 2.4 M triangulations: more classes than memory holds
        def generate(*args):
            raise AssertionError("generated a size past MAX_TRI_N")

        monkeypatch.setattr(cli.gen, "gen_triangulations", generate)
        monkeypatch.setattr(cli.gen, "gen_even_triangulations", generate)
        code, rows, err = run(capsys, ["survey", "--family", "even-tri", "--n-max", "15"])
        assert code == 2 and not rows
        assert err.startswith("error: --n-max must be in [4, 14]")
        monkeypatch.undo()
        monkeypatch.setattr(cli.gen, "gen_triangulations", generate)
        code, rows, err = run(capsys, ["gen", "--family", "even-tri", "--size", "15"])
        assert code == 2 and not rows
        assert err.startswith("error: SizeOutOfRange") and "Traceback" not in err

    def test_survey_even_tri(self, capsys):
        code, rows, _ = run(
            capsys, ["survey", "--family", "even-tri", "--n-max", "8"]
        )
        assert code == 0
        summary = rows[-1]
        assert summary["result"]["instances"] == 2
        for row in rows[:-1]:
            assert all(row["checks"].values())

    def test_survey_barnette_hypothesis(self, capsys):
        code, rows, _ = run(
            capsys, ["survey", "--family", "barnette-hypothesis", "--n-max", "10"]
        )
        assert code == 0
        assert rows[-1]["result"]["instances"] == 4
        assert all(all(row["checks"].values()) for row in rows[:-1])

    def test_survey_barnette_hypothesis_builds_h_once(self, capsys, monkeypatch):
        from dualham import colorizer, gen, structure, treesplit

        built, checked = [], []
        real_build, real_check = gen.big_vertex_graph, structure.is_multi4

        def counted_build(g, *args, **kwargs):
            built.append(g.n)
            return real_build(g, *args, **kwargs)

        def counted_check(g, *args, **kwargs):
            checked.append(g.n)
            return real_check(g, *args, **kwargs)

        for mod in (gen, treesplit):
            monkeypatch.setattr(mod, "big_vertex_graph", counted_build)
        for mod in (structure, colorizer, gen, treesplit):
            monkeypatch.setattr(mod, "is_multi4", counted_check)
        argv = ["survey", "--family", "barnette-hypothesis", "--n-max", "10"]
        code, rows, _ = run(capsys, argv)
        # 5 instances generated, each analysed and checked once; 4 kept
        assert len(built) == 5 and len(checked) == 5
        assert code == 0 and rows[-1]["result"]["instances"] == 4
        assert all(all(r["checks"].values()) for r in rows[:-1])
        code2, rows2, _ = run(capsys, [*argv, "--jobs", "2"])
        assert code2 == 0 and rows2[:-1] == rows[:-1]

    def test_gen_thm24_valid_feeds_the_hypothesis_check(self, capsys, tmp_path):
        code, rows, _ = run(capsys, ["gen", "--family", "thm24-valid", "--size", "10"])
        assert code == 0 and len(rows) == 2
        for i, row in enumerate(rows):
            f = tmp_path / f"thm24-{i}.json"
            f.write_text(json.dumps(row))
            code, out, _ = run(capsys, ["check", str(f), "--family", "barnette-hypothesis"])
            assert code == 0 and all(c["passed"] for c in out[-1]["checks"])

    def test_survey_row_analyses_its_instance_once(self, monkeypatch, catalog12):
        from dualham import duality, treesplit

        real = treesplit.analyse
        calls = []

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(treesplit, "analyse", counted)
        monkeypatch.setattr(duality, "analyse", counted)
        row = cli._survey_even_tri(catalog12[-1].to_json())
        assert row["hypothesis"] and row["eligible_edges"] == 12
        assert all(row["checks"].values())
        # one for the row, its 12 avoided edges and its face-sparse cycle
        assert calls == [12]

    def test_survey_row_checks_h_once_per_analysis(self, monkeypatch, catalog12):
        from dualham import colorizer, gen, structure, treesplit

        real = structure.is_multi4
        calls = []

        def counted(g, *args, **kwargs):
            calls.append(g.n)
            return real(g, *args, **kwargs)

        for mod in (structure, colorizer, gen, treesplit):
            monkeypatch.setattr(mod, "is_multi4", counted)
        row = cli._survey_even_tri(catalog12[-1].to_json())
        assert row["hypothesis"] and row["eligible_edges"] == 12
        assert all(row["checks"].values())
        # the row's analysis serves the row, its 12 avoided edges and its
        # face-sparse cycle
        assert len(calls) == 1

    def test_survey_row_builds_each_abstract_graph_once(self, monkeypatch, even10):
        from dualham.embed import EmbeddedGraph

        real = EmbeddedGraph.abstract
        calls = []

        def counted(self):
            calls.append(self.n)
            return real(self)

        monkeypatch.setattr(EmbeddedGraph, "abstract", counted)
        row = cli._survey_even_tri(even10.to_json())
        assert row["hypothesis"] and row["eligible_edges"] == 12
        assert all(row["checks"].values())
        # the build's connectivity check, the row's analysis and the dual's
        # once for all 12 avoided edges; no per-edge or per-cycle rebuild
        assert calls == [10, 10, 16]

    def test_survey_multi4_row_checks_membership_once(self, monkeypatch):
        # gen_multi4 certifies its graph, so the colourer need not
        from dualham import colorizer

        def refused(*args, **kwargs):
            raise AssertionError("color_beta ran the family check again")

        monkeypatch.setattr(colorizer, "is_multi4", refused)
        for seed in (11, 12, 13):
            row = cli._survey_multi4(seed)
            assert row == {"seed": seed, "n": row["n"], "checks": {"coloring-sound": True}}

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_survey_rejects_jobs_below_one(self, capsys, jobs):
        code, rows, err = run(capsys, ["survey", "--family", "multi4", "--count", "3",
                                       "--jobs", jobs])
        assert code == 2 and not rows
        assert "error: --jobs must be at least 1" in err

    @pytest.mark.parametrize("family, option, value", [
        ("even-tri", "--n-max", "3"), ("even-tri", "--n-max", "17"),
        ("barnette-hypothesis", "--n-max", "3"), ("barnette-hypothesis", "--n-max", "17"),
        ("multi4", "--count", "0"), ("multi4", "--count", "-2"),
    ])
    def test_survey_checks_sizes_before_generating(self, capsys, monkeypatch,
                                                   family, option, value):
        def generate(*args):
            raise AssertionError("generated before the sizes were checked")

        monkeypatch.setattr(cli.gen, "gen_even_triangulations", generate)
        monkeypatch.setattr(cli.gen, "gen_multi4", generate)
        code, rows, err = run(capsys, ["survey", "--family", family, option, value])
        assert code == 2 and not rows
        assert err.startswith(f"error: {option} must be") and "Traceback" not in err

    def test_survey_starts_no_more_workers_than_tasks(self, capsys, monkeypatch):
        asked = []

        class SerialPool:
            """Records the pool size it is asked for and starts no process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        code, rows, _ = run(capsys, ["survey", "--family", "multi4", "--count", "3",
                                     "--jobs", "1000000"])
        assert code == 0 and rows[-1]["result"]["instances"] == 3
        assert asked == [3]

    def test_survey_multi4(self, capsys):
        code, rows, _ = run(
            capsys, ["survey", "--family", "multi4", "--count", "3", "--seed", "11"]
        )
        assert code == 0
        assert rows[-1]["result"]["instances"] == 3

    def test_survey_streams_rows_past_a_bad_instance(self, capsys, monkeypatch):
        real = cli.gen.gen_multi4
        printed_before = []

        def flaky(size, seed):
            if seed == 12:
                printed_before.append(capsys.readouterr().out)
                raise RuntimeError("injected")
            return real(size, seed)

        monkeypatch.setattr(cli.gen, "gen_multi4", flaky)
        code, rows, _ = run(capsys, ["survey", "--family", "multi4", "--count", "3",
                                     "--seed", "11", "--jobs", "1"])
        assert code == 1
        # seed 11's row was out before seed 12 started
        (early,) = [json.loads(line) for line in printed_before[0].splitlines()]
        assert early["seed"] == 11 and all(early["checks"].values())
        bad, good, summary = rows
        assert bad == {"seed": 12, "checks": {"coloring-sound": False},
                       "error": "RuntimeError: injected"}
        assert good["seed"] == 13 and all(good["checks"].values())
        assert summary["result"]["instances"] == 3
        assert summary["checks"][0]["witness"] == [bad]

    def test_survey_even_tri_survives_a_bad_instance(self, capsys, monkeypatch):
        real = cli.dual

        def flaky(g):
            if g.n == 8:
                raise RuntimeError("injected")
            return real(g)

        monkeypatch.setattr(cli, "dual", flaky)
        code, rows, _ = run(capsys, ["survey", "--family", "even-tri", "--n-max", "8",
                                     "--jobs", "1"])
        assert code == 1
        ok, bad, summary = rows
        assert ok["n"] == 6 and all(ok["checks"].values())
        assert bad == {"n": 8, "checks": {"instance": False},
                       "error": "RuntimeError: injected"}
        assert summary["result"]["instances"] == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_block_runs(tmp_path):
    """Every line of the README's CLI block exits 0 when run as written,
    which takes `survey --jobs 4` through the process pool."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    src = str(Path(cli.__file__).resolve().parents[1])
    script = f'dualham() {{ {shlex.quote(sys.executable)} -m dualham.cli "$@"; }}\n{block}'
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "survey --family even-tri: ok" in proc.stderr
