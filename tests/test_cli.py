import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustertube import ExchangeMatrix, MaximalRigid
from clustertube.cli import COMMANDS, RANK_CEILING, _read_argv, build_parser, main
from clustertube.rigid import RigidTable
from clustertube.verify import SUITES


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

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_cold_enumerate_builds_no_object(
        self, n, fmt, monkeypatch, capsys, clear_package_caches
    ):
        # each node is printed from its mask
        built = []

        def counted(self, real=MaximalRigid.__post_init__):
            built.append(self)
            real(self)

        monkeypatch.setattr(MaximalRigid, "__post_init__", counted)
        clear_package_caches()
        assert main(["enumerate", "--rank", str(n), "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert built == []


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

    @pytest.mark.parametrize(
        "args",
        [("enumerate", "--rank", "9", "--format", "table"), ("exchange-graph", "--rank", "7")],
        ids=["enumerate", "exchange-graph"],
    )
    def test_closed_stdout(self, args):
        # the reader stops after one line, well before the output ends (over
        # 100 kB, more than a pipe holds): exit 2, as for an unwritable --out
        with subprocess.Popen(
            [sys.executable, "-m", "clustertube", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_cold_export_builds_only_the_seed(
        self, n, fmt, monkeypatch, capsys, clear_package_caches
    ):
        # nodes are written from their masks and the graph's rows; the
        # seed's object is checked once, from its mask
        built = []
        for cls in (MaximalRigid, ExchangeMatrix):

            def counted(self, real=cls.__post_init__):
                built.append(type(self).__name__)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        real = RigidTable.defect
        monkeypatch.setattr(
            RigidTable, "defect", lambda t, m: built.append("defect") or real(t, m)
        )
        clear_package_caches()
        assert main(["exchange-graph", "--rank", str(n), "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert built == ["defect", "ExchangeMatrix"]


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

    def test_hom_rank_range(self):
        """``hom`` runs on the range of every suite, 2..13."""
        code, out, _ = run("verify", "--rank", "7", "--suite", "hom")
        assert code == 0
        assert out.endswith("PASS suite=hom rank=7\n")
        code, _, err = run("verify", "--rank", "14", "--suite", "hom")
        assert code == 2
        assert err

    def test_suite_choices_are_the_suites(self):
        actions = build_parser()._actions
        sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert suite.choices == ("all",) + SUITES


# argv that _read_argv must read without argparse: the shapes that the
# benchmark's queries and certify send, and the README's examples
WELL_FORMED = [
    ["hom", "--rank", "12", "--from", "3,17", "--to", "12,1"],
    ["polygon", "--rank", "8", "--object", "1,7;1,6;2,5;2,4;3,3;3,2;4,1"],
    ["bmatrix", "--rank", "5", "--object", "4,1;3,3;3,2;2,4"],
    ["mutate", "--rank", "6", "--object", "6,2;1,1;3,1;3,5;3,2", "--at", "3,2"],
    *(["verify", "--rank", "6", "--suite", s] for s in ("hom", "polygon")),
    *(["verify", "--rank", "8", "--suite", s] for s in ("counts", "no-ct")),
    ["verify", "--rank", "7", "--suite", "mutation"],
    ["hom", "--rank", "3", "--from", "1,2", "--to", "1,2"],
    ["enumerate", "--rank", "4", "--format", "json"],
    ["bmatrix", "--rank", "4", "--object", "1,3;1,2;2,1", "--cartan"],
    ["mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "1,1"],
    ["polygon", "--rank", "3", "--object", "1,2;1,1"],
    ["exchange-graph", "--rank", "4", "--format", "dot", "--out", "graph.dot"],
    ["verify", "--rank", "4", "--suite", "all"],
    ["enumerate", "--rank", "9", "--format", "table"],
    # flags in any order, and defaults left out
    ["hom", "--to", "1,1", "--from", " 1 , 2 ", "--rank", "3"],
    ["bmatrix", "--cartan", "--object", "1,2;1,1", "--rank", "3"],
    ["exchange-graph", "--rank", "3"],
    ["verify", "--rank", "3"],
]

FLAGS_OF = {name: [flag for flag, _ in command[-1]] for name, command in COMMANDS.items()}
FLAGS = sorted({flag for flags in FLAGS_OF.values() for flag in flags} | {"--rank"})
VALUES = ["5", " 5", "+5", "-3", "-", "", "1,2;1,1", "-1,2", "a b", "json", "dot", "counts"]
# what the property puts into an argv: one word or a flag with its value,
# among them abbreviations, --flag=value, -h and --
INSERTS = (
    [(word,) for word in [*COMMANDS, *FLAGS, "-h", "--", *VALUES]]
    + [(flag[:k],) for flag in FLAGS for k in range(3, len(flag))]
    + [(f"{flag}={value}",) for flag in FLAGS for value in VALUES]
    + [(flag, value) for flag in FLAGS for value in VALUES]
)
EDITS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 2), st.sampled_from([(), *INSERTS])),
    max_size=3,
)


class TestArgvReader:
    """``_read_argv`` reads a well-formed argv as argparse would, and
    leaves every other argv to argparse."""

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_reads_well_formed_argv(self, argv):
        args = _read_argv(argv)
        assert args is not None
        assert vars(args) == vars(build_parser().parse_args(argv))

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_reads_only_what_argparse_reads_alike(self, data):
        # a command's flags in any order, each left out, bare or with a
        # value; then each edit puts its words in place of up to two words
        command = data.draw(st.sampled_from(sorted(COMMANDS)))
        argv = [command]
        for flag in data.draw(st.permutations(["--rank", *FLAGS_OF[command]])):
            argv += data.draw(st.sampled_from([(), (flag,), *((flag, v) for v in VALUES)]))
        for at, drop, words in data.draw(EDITS):
            argv[at : at + drop] = words
        args = _read_argv(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    BASE = {
        "hom": ["hom", "--rank", "3", "--from", "1,1", "--to", "2,1"],
        "enumerate": ["enumerate", "--rank", "3", "--format", "table"],
        "exchange-graph": ["exchange-graph", "--rank", "3", "--format", "dot"],
        "bmatrix": ["bmatrix", "--rank", "3", "--object", "1,2;1,1"],
        "mutate": ["mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "1,1"],
        "polygon": ["polygon", "--rank", "3", "--object", "1,2;1,1"],
        "verify": ["verify", "--rank", "3", "--suite", "hom"],
    }

    @pytest.mark.parametrize(
        "fault", ["missing-rank", "unknown-flag", "rank-not-int", "bad-choice", "stray"]
    )
    @pytest.mark.parametrize("command", sorted(BASE))
    def test_bad_flags_exit_two(self, command, fault):
        argv = list(self.BASE[command])
        if fault == "missing-rank":
            del argv[1:3]
        elif fault == "unknown-flag":
            argv.append("--bogus")
        elif fault == "rank-not-int":
            argv[2] = "three"
        elif fault == "bad-choice":  # an unknown flag where there is no choice
            argv += ["--suite" if command == "verify" else "--format", "nope"]
        else:
            argv.append("stray")
        code, out, err = run(*argv)
        assert code == 2
        assert not out
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1]

    def test_usage_and_error_are_argparse_own(self):
        # taken while build_parser() read every argv
        proc = subprocess.run(
            [sys.executable, "-m", "clustertube", "mutate", "--rank", "3", "--object", "1,2;1,1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, COLUMNS="80"),
        )
        assert proc.returncode == 2
        assert not proc.stdout
        assert proc.stderr == (
            "usage: clustertube mutate [-h] --rank RANK --object A,B;A,B;... --at A,B\n"
            "clustertube mutate: error: the following arguments are required: --at\n"
        )


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
        ["exchange-graph", "--rank", "7", "--format", "dot"],
        "c09ada9eb333fe9df241957bb20785a9a095f0984f5c837ad431c502da09d260",
    ),
    (
        ["exchange-graph", "--rank", "7", "--format", "json"],
        "304e696d39e8696069426c3fc2b32b5f1c2df6177122eddbca782434b69c9e72",
    ),
    (
        ["bmatrix", "--rank", "7", "--object", "3,6;4,5;4,4;4,3;4,2;5,1", "--cartan"],
        "f8325f27b337152bc540ae0284bf81e8feb5b47243d8a6d51099fe3f2a5835fe",
    ),
    (
        ["mutate", "--rank", "7", "--object", "2,6;2,5;3,4;4,3;4,2;5,1", "--at", "4,3"],
        "fd1b656c508444ab92d74616e9db6f983f70dd6028cb8ac6ff03859f74839588",
    ),
    # taken while both graphs still stored their edges as triple lists
    (
        ["exchange-graph", "--rank", "8", "--format", "dot"],
        "421ff70b117109e162b16d50e11e2c408bcf878fb9cd98fe7aaf7e0e6e6ae915",
    ),
    (
        ["exchange-graph", "--rank", "8", "--format", "json"],
        "798376bf173ad49b23401e3641ecaf64bddeb75d3dbffbb517c49bd0268058cd",
    ),
    # taken while hom and polygon still wrote their lines through json.dumps
    (
        ["hom", "--rank", "2", "--from", "1,1", "--to", "2,3"],
        "6ce5084f91874cfcf93ec03c8e4b8c8282afcbc295088082068a0cccf1aefee9",
    ),
    (
        ["hom", "--rank", "12", "--from", "12,23", "--to", "1,13"],
        "bba8d82c12ea1080e6f607a89aaa66f61f1d972c55c89362da68beea6029e6b8",
    ),
    (
        ["polygon", "--rank", "3", "--object", "1,2;1,1"],
        "133cd1cdab918a9b57ec405376e9c69eb85be01aeae557855174cdab9ec1593c",
    ),
    (
        ["polygon", "--rank", "8", "--object", "1,7;1,6;2,5;2,4;3,3;3,2;4,1"],
        "e8de1ba8c2aa7833b95f48de8583896ed44426dfb55e87dde4e474664f071241",
    ),
]


# sha256 of `verify --suite all` stdout by rank; every rank exits 0.  From
# rank 7 on, taken from the five suites called one by one while ``all``
# still skipped ``hom`` and ``polygon`` there
VERIFY_ALL_GOLDEN = {
    2: "96b41a2b117564eb68a46301fec44b00cbfb462fabdcaf8169a7ae8457a3c736",
    3: "48fffe9daeae883d954ee390154166c5eaacb6aa3965a85f3bcd45d7f243e4b1",
    4: "e89374c57474a34e1a144aed009270320fda9c30fda4a51859572907f8df87ff",
    5: "2d54c1452638e9938f2493fe8675c130c121706426d9c04cb8fe77d1083bb7c3",
    6: "0b010847e92a19ca2f5a3235e28149250647fcf02081298e8d502942cbfd60c7",
    7: "074c6b054b1f3e6d9bb25ca6c409b9f117919f913f698383ce12ed38cb7e3777",
    8: "f7306766344bb8b5861bcf28903bc64c00b85484095421baff4877bcaf3f3e83",
    9: "eb9c0faae24b0544091fa36dd0283b7940bf0741c12519dcc6c270171bfd7411",
    10: "a47d1a4779a139304bb19a6a1dbe1f7f6345c3ed85381872640cbed1ca023ba1",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("argv,digest", GOLDEN, ids=[g[0][0] + g[0][2] for g in GOLDEN])
    def test_byte_identical(self, argv, digest):
        code, out, _ = run(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("rank", sorted(VERIFY_ALL_GOLDEN))
    def test_verify_all_byte_identical(self, rank):
        code, out, _ = run("verify", "--rank", str(rank), "--suite", "all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_GOLDEN[rank]


ZIGZAG_10 = "1,9;1,8;2,7;2,6;3,5;3,4;4,3;4,2;5,1"


class TestRankCeiling:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate"],
            ["exchange-graph"],
            ["bmatrix", "--object", "1,1"],
            ["mutate", "--object", "1,1", "--at", "1,1"],
            ["polygon", "--object", "1,1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_above_ceiling_exits_two(self, argv):
        code, out, err = run(*argv, "--rank", str(RANK_CEILING + 1))
        assert code == 2
        assert not out
        assert f"2..{RANK_CEILING}" in err

    def test_polygon_at_ceiling(self):
        assert RANK_CEILING == 10
        code, out, _ = run("polygon", "--rank", "10", "--object", ZIGZAG_10)
        assert code == 0
        assert json.loads(out)["rank"] == 10

    def test_hom_is_unbounded(self):
        code, out, _ = run("hom", "--rank", "2000", "--from", "1,1", "--to", "1,1")
        assert code == 0
        assert json.loads(out)["tube"] == 1


class TestNoRuntimeDependencies:
    def test_cli_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, clustertube.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_pyproject_lists_no_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["dependencies"] == []


def loaded_submodules(code: str, *args: str) -> set:
    """The ``clustertube.*`` modules, and ``argparse`` and ``json``, that a
    fresh interpreter holds after running ``code``, which may read its
    arguments from ``sys.argv[1:]``."""
    report = (
        "print(*(m for m in sys.modules"
        " if m.startswith('clustertube.') or m in ('argparse', 'json')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("clustertube.") for m in proc.stdout.splitlines()[-1].split()}


class TestColdStart:
    """A cold process compiles only the layers its command runs, and a
    well-formed argv loads neither ``argparse`` nor ``json``."""

    QUERY = {"cli", "errors", "tube"}

    def test_package_import_loads_no_submodule(self):
        assert loaded_submodules("import clustertube") == set()

    @pytest.mark.parametrize(
        "argv,layers",
        [
            (["hom", "--rank", "5", "--from", "1,1", "--to", "2,3"], set()),
            (["polygon", "--rank", "3", "--object", "1,2;1,1"], {"rigid", "polygon"}),
            (["bmatrix", "--rank", "4", "--object", "1,3;1,2;2,1"], {"rigid", "mutation"}),
            (
                ["mutate", "--rank", "3", "--object", "1,2;1,1", "--at", "1,1"],
                {"rigid", "mutation"},
            ),
            # a suite's process loads the core, its suite modules and its layers
            (["verify", "--rank", "5", "--suite", "hom"], {"verify", "verify_reps", "reps"}),
            (["verify", "--rank", "5", "--suite", "counts"], {"verify", "verify_rigid", "rigid"}),
            (
                ["verify", "--rank", "5", "--suite", "mutation"],
                {"verify", "verify_rigid", "verify_mutation", "rigid", "mutation"},
            ),
            (
                ["verify", "--rank", "5", "--suite", "polygon"],
                {"verify", "verify_polygon", "rigid", "mutation", "polygon"},
            ),
            (["verify", "--rank", "5", "--suite", "no-ct"], {"verify", "verify_rigid", "rigid"}),
        ],
        ids=lambda v: (f"verify-{v[-1]}" if v[0] == "verify" else v[0])
        if isinstance(v, list)
        else None,
    )
    def test_command_loads_only_its_layers(self, argv, layers):
        code = "import clustertube.cli\nassert clustertube.cli.main(sys.argv[1:]) == 0"
        assert loaded_submodules(code, *argv) == self.QUERY | layers

    @pytest.mark.parametrize(
        "argv,code,loaded",
        [
            (["--help"], 0, {"argparse"}),
            (["hom", "--help"], 0, {"argparse"}),
            (["hom", "--rank", "5", "--from", "1,1"], 2, {"argparse"}),
            (["hom", "--rank=5", "--from", "1,1", "--to", "2,3"], 0, {"argparse"}),
            (["enumerate", "--rank", "3"], 0, {"json"}),
            (["exchange-graph", "--rank", "3", "--format", "json"], 0, {"json"}),
        ],
        ids=["help", "hom-help", "malformed", "flag=value", "enumerate", "exchange-graph"],
    )
    def test_argparse_and_json_load_only_when_used(self, argv, code, loaded):
        # argparse reads only help and the argv that _read_argv leaves
        run_main = (
            "import clustertube.cli\n"
            "try:\n"
            "    code = clustertube.cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"assert code == {code}, code"
        )
        got = loaded_submodules(run_main, *argv) & {"argparse", "json"}
        assert got == loaded

    def test_unknown_suite_is_rejected_before_any_suite_loads(self):
        code = (
            "from clustertube.verify import run_suite\n"
            "try:\n"
            "    run_suite('nope', 5)\n"
            "except ValueError as exc:\n"
            "    assert str(exc) == \"unknown suite 'nope'\", exc\n"
            "else:\n"
            "    raise AssertionError('no ValueError')"
        )
        assert loaded_submodules(code) == {"errors", "tube", "verify"}


# every name ``clustertube`` exported, with its defining module
EXPORTS = {
    "errors": "RankMismatchError StructuralError TheoremViolationError",
    "mutation": "ExchangeGraph ExchangeMatrix Seed build_exchange_graph cartan_counterpart"
    " exchange fz_mutate initial_seed",
    "polygon": "CsPair CsTriangulation Diagonal FlipGraph all_cs_pairs crossing_points delta"
    " delta_inv diagonals_cross flip flip_graph graphs_isomorphic_via_delta triangulation_of",
    "reps": "NilpotentRep build_rep hom_dim_oracle",
    "rigid": "MaximalRigid complements enumerate_maximal_rigid enumerate_rigid_indecs"
    " is_rigid_set",
    "tube": "TubeObject canonical_key ext_dim_cluster hom_dim_cluster hom_dim_tube"
    " is_rigid_indec tau wing_contains",
}


class TestLazyExports:
    NAMES = [(name, module) for module, names in EXPORTS.items() for name in names.split()]

    def test_forty_names(self):
        assert len(self.NAMES) == len(dict(self.NAMES)) == 40

    @pytest.mark.parametrize("name,module", NAMES)
    def test_name_is_its_modules_object(self, name, module):
        import importlib

        import clustertube

        defining = importlib.import_module(f"clustertube.{module}")
        assert getattr(clustertube, name) is getattr(defining, name)

    def test_all_and_dir_list_the_names(self):
        import clustertube

        names = {name for name, _ in self.NAMES}
        assert sorted(clustertube.__all__) == sorted(names)
        assert names <= set(dir(clustertube))

    def test_version(self):
        import clustertube

        assert clustertube.__version__ == "0.1.0"

    def test_submodules_import_by_name(self):
        from clustertube import rigid, verify

        assert rigid.__name__ == "clustertube.rigid"
        assert verify.__name__ == "clustertube.verify"

    def test_unknown_name_is_an_attribute_error(self):
        import clustertube

        with pytest.raises(AttributeError, match="no_such_name"):
            clustertube.no_such_name
        assert not hasattr(clustertube, "no_such_name")


class TestInProcessEntryPoint:
    def test_main_returns_exit_code(self, capsys):
        assert main(["hom", "--rank", "3", "--from", "1,1", "--to", "1,1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["tube"] == 1
