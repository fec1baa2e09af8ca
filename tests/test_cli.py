import hashlib
import json
import subprocess
import sys

import pytest

from clustertube.cli import main


def run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "clustertube", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestHom:
    def test_loop_space(self):
        code, out, _ = run("hom", "--rank", "3", "--from", "1,2", "--to", "1,2")
        assert code == 0
        assert json.loads(out) == {"tube": 1, "cluster": 2, "ext": 0}

    def test_non_rigid_self(self):
        code, out, _ = run("hom", "--rank", "3", "--from", "1,3", "--to", "1,3")
        assert code == 0
        assert json.loads(out)["ext"] == 2

    def test_between_simples(self):
        code, out, _ = run("hom", "--rank", "3", "--from", "1,1", "--to", "2,1")
        assert code == 0
        assert json.loads(out) == {"tube": 0, "cluster": 1, "ext": 1}

    def test_whitespace_insensitive(self):
        code, out, _ = run("hom", "--rank", "3", "--from", " 1 , 2 ", "--to", "1,2")
        assert code == 0
        assert json.loads(out)["tube"] == 1

    def test_bad_input(self):
        code, _, err = run("hom", "--rank", "3", "--from", "9,1", "--to", "1,1")
        assert code == 2
        assert err


class TestEnumerate:
    @pytest.mark.parametrize("rank,count", [("2", 2), ("3", 6), ("4", 20)])
    def test_counts(self, rank, count):
        code, out, _ = run("enumerate", "--rank", rank, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == int(rank)
        assert len(payload["objects"]) == count

    def test_table(self):
        code, out, _ = run("enumerate", "--rank", "3", "--format", "table")
        assert code == 0
        assert len(out.strip().splitlines()) == 6
        assert "1,2;1,1" in out

    def test_json_roundtrips_into_object_specs(self):
        _, out, _ = run("enumerate", "--rank", "3", "--format", "json")
        for summands in json.loads(out)["objects"]:
            spec = ";".join(f"{a},{b}" for a, b in summands)
            code, _, _ = run("bmatrix", "--rank", "3", "--object", spec)
            assert code == 0

    def test_deterministic(self):
        a = run("enumerate", "--rank", "4")
        b = run("enumerate", "--rank", "4")
        assert a == b


class TestExchangeGraph:
    def test_dot(self, tmp_path):
        path = tmp_path / "g.dot"
        code, _, _ = run(
            "exchange-graph", "--rank", "3", "--format", "dot", "--out", str(path)
        )
        assert code == 0
        text = path.read_text()
        assert text.count("[label=") == 6 + 6  # 6 nodes + 6 edges
        assert text.startswith("graph exchange {")

    def test_json(self, tmp_path):
        path = tmp_path / "g.json"
        code, _, _ = run(
            "exchange-graph", "--rank", "4", "--format", "json", "--out", str(path)
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["nodes"]) == 20
        assert all(len(n["matrix"]) == 9 for n in payload["nodes"])
        assert len({frozenset((a, c)) for a, _, c in payload["edges"]}) == 30

    def test_rank_two(self):
        code, out, _ = run("exchange-graph", "--rank", "2", "--format", "dot")
        assert code == 0
        assert out.count(" -- ") == 1

    def test_unwritable_path(self, tmp_path):
        code, _, err = run(
            "exchange-graph",
            "--rank",
            "3",
            "--out",
            str(tmp_path / "missing" / "g.dot"),
        )
        assert code == 2
        assert err


class TestBmatrix:
    def test_zigzag_rank_four(self):
        code, out, _ = run("bmatrix", "--rank", "4", "--object", "1,3;1,2;2,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order: 1,3;1,2;2,1"
        assert lines[1:] == ["0 -2 0", "1 0 1", "0 -1 0"]

    def test_zigzag_rank_three_with_cartan(self):
        code, out, _ = run(
            "bmatrix", "--rank", "3", "--object", "1,2;1,1", "--cartan"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1:3] == ["0 -2", "1 0"]
        assert lines[3] == "cartan:"
        assert lines[4:] == ["2 -2", "-1 2"]

    def test_not_maximal_rigid(self):
        code, _, err = run("bmatrix", "--rank", "3", "--object", "1,1;2,1")
        assert code == 2
        assert err


class TestMutate:
    def test_swap_simple(self):
        code, out, _ = run(
            "mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "1,1"
        )
        assert code == 0
        assert out.splitlines()[0] == "object: 1,2;2,1"

    def test_swap_top(self):
        code, out, _ = run(
            "mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "1,2"
        )
        assert code == 0
        assert out.splitlines()[0] == "object: 1,1;3,2"

    def test_involution(self):
        _, out1, _ = run(
            "mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "1,1"
        )
        new_obj = out1.splitlines()[0].split(": ")[1]
        _, out2, _ = run(
            "mutate", "--rank", "3", "--object", new_obj, "--at", "2,1"
        )
        assert out2.splitlines()[0] == "object: 1,2;1,1"
        _, base, _ = run("bmatrix", "--rank", "3", "--object", "1,2;1,1")
        assert out2.splitlines()[1:] == base.strip().splitlines()

    def test_missing_summand(self):
        code, _, err = run(
            "mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "2,1"
        )
        assert code == 2
        assert err


    @pytest.mark.parametrize(
        "rank,objects,at",
        [("3", "1,3;1,1", "1,1"), ("4", "1,1;2,1;1,3", "1,3")],
    )
    def test_non_rigid_input(self, rank, objects, at):
        code, _, err = run("mutate", "--rank", rank, "--object", objects, "--at", at)
        assert code == 2
        assert err.startswith("error:")


class TestPolygon:
    def test_triangulation(self):
        code, out, _ = run("polygon", "--rank", "3", "--object", "1,2;1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"rank": 3, "pairs": [[[1, 3], [4, 6]], [[1, 4]]]}


class TestVerify:
    def test_all_rank_four(self):
        code, out, _ = run("verify", "--rank", "4", "--suite", "all")
        assert code == 0
        assert "PASS suite=all rank=4" in out

    def test_polygon_rank_three(self):
        code, out, _ = run("verify", "--rank", "3", "--suite", "polygon")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_unsupported_rank(self):
        code, _, err = run("verify", "--rank", "1", "--suite", "all")
        assert code == 2
        assert err

    def test_exhaustive_suite_rank_limited(self):
        code, _, err = run("verify", "--rank", "7", "--suite", "hom")
        assert code == 2
        assert err


# sha256 of stdout, captured before the enumeration and the exchange
# graph moved onto integer masks; the CLI output must stay byte-identical
GOLDEN = [
    (
        ["enumerate", "--rank", "7", "--format", "json"],
        "6ba70d71b089a0b24f049ec3421c3a0d830b3d70871d9710116965519ddb553c",
    ),
    (
        ["exchange-graph", "--rank", "6", "--format", "json"],
        "1dcaa76e37bdbd85d94558017e15c7d8980675c69da0d78f0b853d3cf70f1401",
    ),
    (
        ["exchange-graph", "--rank", "5", "--format", "dot"],
        "d95582070cd8dbe21894138c742e0eb7413f1a2afc8211c72f52c6eedd7d2a60",
    ),
    (
        ["bmatrix", "--rank", "7", "--object", "3,6;4,5;4,4;4,3;4,2;5,1", "--cartan"],
        "f8325f27b337152bc540ae0284bf81e8feb5b47243d8a6d51099fe3f2a5835fe",
    ),
    (
        ["mutate", "--rank", "7", "--object", "2,6;2,5;3,4;4,3;4,2;5,1", "--at", "4,3"],
        "fd1b656c508444ab92d74616e9db6f983f70dd6028cb8ac6ff03859f74839588",
    ),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv,digest", GOLDEN, ids=[g[0][0] + g[0][2] for g in GOLDEN])
    def test_byte_identical(self, argv, digest):
        code, out, _ = run(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestInProcessEntryPoint:
    def test_main_returns_exit_code(self, capsys):
        assert main(["hom", "--rank", "3", "--from", "1,1", "--to", "1,1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["tube"] == 1
