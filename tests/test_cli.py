import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, run_cli
from nestfock import cli
from nestfock.basis_change import _checksum

# the modules a transition call runs; argparse, hashlib, ring, symfunc and verify stay unrun
TRANSITION_MODULES = [
    "nestfock",
    "nestfock.basis_change",
    "nestfock.cli",
    "nestfock.curve_classes",
    "nestfock.fock",
    "nestfock.incidence",
    "nestfock.partitions",
]


# tokens for argument lists: every flag of the command line, some misspelt, and
# values that each option accepts or refuses
FLAGS = [
    "--from", "--to", "--degree", "-n", "--basis", "--a", "--b", "--max-n", "--suite",
    "--cache-dir", "--format", "--max-degree", "--deg", "--degree=3", "-n3", "-h", "--", "-x",
]
VALUES = [
    "b1", "b2", "b3", "b9", "ordinary", "3", "0", "12", "13", "-1", " 7", "+2", "x", "",
    "json", "csv", "all", "hooks", "cache", "{}", "-", "--format", "transition",
]


def accepted_values(options):
    if "choices" in options:
        return list(options["choices"])
    return ["0", "3", "12", "13", " 7", "+2"] if options.get("type") is int else ["cache", "", "{}", "a b"]


@st.composite
def argument_lists(draw):
    """A subcommand with each required option and some others, in any order,
    valid or invalid values, and now and then one stray token."""
    command = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    argv = [command]
    for flags, options in draw(st.permutations(cli.COMMON_OPTIONS + cli.SUBCOMMANDS[command][1])):
        if options.get("required") or draw(st.booleans()):
            argv.append(draw(st.sampled_from(flags)))
            argv.append(draw(st.one_of(st.sampled_from(accepted_values(options)), st.sampled_from(VALUES))))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FLAGS + VALUES)))
    return argv


def run_probe(probe, *args, cwd):
    """Run python -c probe with args in a fresh process that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )


class TestTransition:
    def test_degree_one_rows(self, tmp_path):
        res = run_cli(
            "transition", "--from", "b2", "--to", "b1", "--degree", "1", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["source"] == "b2" and doc["target"] == "b1" and doc["n"] == 1
        assert doc["key_order"]["rows"] == [{"i": 1, "nu": []}, {"i": 0, "nu": [1]}]
        assert doc["rows"] == [["1/2", "-1/2"], ["1/2", "1/2"]]

    def test_b3_to_b2_degree_zero(self, tmp_path):
        res = run_cli(
            "transition", "--from", "b3", "--to", "b2", "--degree", "0", cwd=tmp_path
        )
        assert json.loads(res.stdout)["rows"] == [["1"]]

    def test_identity(self, tmp_path):
        res = run_cli(
            "transition", "--from", "b1", "--to", "b1", "--degree", "3", cwd=tmp_path
        )
        doc = json.loads(res.stdout)
        dim = len(doc["key_order"]["rows"])
        for i, row in enumerate(doc["rows"]):
            assert row == ["1" if j == i else "0" for j in range(dim)]

    def test_invalid_basis_is_usage_error(self, tmp_path):
        res = run_cli(
            "transition", "--from", "b9", "--to", "b1", "--degree", "1", cwd=tmp_path
        )
        assert res.returncode == 2

    def test_degree_above_max_is_usage_error(self, tmp_path):
        res = run_cli(
            "transition",
            "--from", "b2", "--to", "b1", "--degree", "5", "--max-degree", "4",
            cwd=tmp_path,
        )
        assert res.returncode == 2

    def test_csv_format(self, tmp_path):
        res = run_cli(
            "transition",
            "--from", "b2", "--to", "b1", "--degree", "1", "--format", "csv",
            cwd=tmp_path,
        )
        lines = res.stdout.splitlines()
        assert lines[0].startswith("key,")
        assert len(lines) == 3 and "1/2" in lines[1]


class TestDeterminismAndCache:
    def test_repeated_runs_byte_identical(self, tmp_path):
        args = ("transition", "--from", "b2", "--to", "b1", "--degree", "3")
        first = run_cli(*args, cwd=tmp_path)
        second = run_cli(*args, cwd=tmp_path)
        assert first.stdout == second.stdout and first.returncode == second.returncode == 0

    def test_cold_and_warm_cache_agree(self, tmp_path):
        args = ("transition", "--from", "b2", "--to", "b1", "--degree", "2")
        cold = run_cli(*args, cwd=tmp_path)
        cache_file = tmp_path / ".nestfock-cache" / "b2--b1--2.json"
        assert cache_file.exists()
        warm = run_cli(*args, cwd=tmp_path)
        assert cold.stdout == warm.stdout

    def test_cache_dir_flag_and_env(self, tmp_path):
        flag_dir = tmp_path / "flagcache"
        run_cli(
            "transition",
            "--from", "b2", "--to", "b1", "--degree", "1",
            "--cache-dir", str(flag_dir),
            cwd=tmp_path,
        )
        assert (flag_dir / "b2--b1--1.json").exists()
        env_dir = tmp_path / "envcache"
        run_cli(
            "transition", "--from", "b2", "--to", "b1", "--degree", "1",
            cwd=tmp_path,
            env_extra={"NESTFOCK_CACHE_DIR": str(env_dir)},
        )
        assert (env_dir / "b2--b1--1.json").exists()
        # the flag wins over the environment
        both_dir = tmp_path / "bothcache"
        run_cli(
            "transition", "--from", "b2", "--to", "b1", "--degree", "1",
            "--cache-dir", str(both_dir),
            cwd=tmp_path,
            env_extra={"NESTFOCK_CACHE_DIR": str(env_dir / "ignored")},
        )
        assert (both_dir / "b2--b1--1.json").exists()

    def test_corrupted_cache_is_loud(self, tmp_path):
        args = ("transition", "--from", "b2", "--to", "b1", "--degree", "1")
        run_cli(*args, cwd=tmp_path)
        cache_file = tmp_path / ".nestfock-cache" / "b2--b1--1.json"
        doc = json.loads(cache_file.read_text())
        doc["rows"][0][0] = "9"
        cache_file.write_text(json.dumps(doc))
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 1 and "checksum" in res.stderr

    @pytest.mark.parametrize(
        "copy_to, args",
        [
            ("b2--b1--3.json", ("--from", "b2", "--to", "b1", "--degree", "3")),
            ("b1--b2--2.json", ("--from", "b1", "--to", "b2", "--degree", "2")),
        ],
    )
    def test_misplaced_cache_document_is_loud(self, tmp_path, copy_to, args):
        run_cli("transition", "--from", "b2", "--to", "b1", "--degree", "2", cwd=tmp_path)
        cache = tmp_path / ".nestfock-cache"
        (cache / copy_to).write_text((cache / "b2--b1--2.json").read_text())
        res = run_cli("transition", *args, cwd=tmp_path)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error:") and "is not the" in res.stderr

    def test_division_by_zero_in_cache_document_is_loud(self, tmp_path):
        args = ("transition", "--from", "b2", "--to", "b1", "--degree", "2")
        run_cli(*args, cwd=tmp_path)
        cache_file = tmp_path / ".nestfock-cache" / "b2--b1--2.json"
        doc = json.loads(cache_file.read_text())
        doc["rows"][1][0] = "1/0"
        doc["checksum"] = _checksum({k: v for k, v in doc.items() if k != "checksum"})
        cache_file.write_text(json.dumps(doc))
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error:") and "malformed" in res.stderr

    def test_cold_json_output_is_the_cache_document(self, tmp_path):
        res = run_cli("transition", "--from", "b3", "--to", "b1", "--degree", "3", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        cache_file = tmp_path / ".nestfock-cache" / "b3--b1--3.json"
        assert res.stdout.encode() == cache_file.read_bytes()

    def test_stale_version_recomputed(self, tmp_path):
        args = ("transition", "--from", "b2", "--to", "b1", "--degree", "1")
        fresh = run_cli(*args, cwd=tmp_path)
        cache_file = tmp_path / ".nestfock-cache" / "b2--b1--1.json"
        doc = json.loads(cache_file.read_text())
        doc["version"] = "0.0.0"
        cache_file.write_text(json.dumps(doc))
        again = run_cli(*args, cwd=tmp_path)
        assert again.returncode == 0 and again.stdout == fresh.stdout

    def test_cache_document_without_a_version_is_loud(self, tmp_path):
        cache = tmp_path / ".nestfock-cache"
        cache.mkdir()
        (cache / "b1--b2--1.json").write_text("{}")
        res = run_cli("transition", "--from", "b1", "--to", "b2", "-n", "1", cwd=tmp_path)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: malformed cache file")
        assert (cache / "b1--b2--1.json").read_text() == "{}"

    @pytest.mark.parametrize("change", ["compact", "unreduced entry"])
    def test_valid_noncanonical_document_prints_canonical_bytes(self, tmp_path, change):
        # a compact document and one holding "2/12" for "1/6", each with a
        # valid checksum: the output is the canonical document and carries
        # the checksum of what it prints
        args = ("transition", "--from", "b2", "--to", "b1", "--degree", "3")
        fresh = run_cli(*args, cwd=tmp_path)
        cache_file = tmp_path / ".nestfock-cache" / "b2--b1--3.json"
        doc = json.loads(cache_file.read_text())
        if change == "unreduced entry":
            r, c = next((r, c) for r, row in enumerate(doc["rows"]) for c, x in enumerate(row) if "/" in x)
            f = Fraction(doc["rows"][r][c])
            doc["rows"][r][c] = f"{2 * f.numerator}/{2 * f.denominator}"
            doc["checksum"] = _checksum({k: v for k, v in doc.items() if k != "checksum"})
        cache_file.write_text(json.dumps(doc, separators=(",", ":")))
        again = run_cli(*args, cwd=tmp_path)
        assert again.returncode == 0 and again.stderr == ""
        assert again.stdout == fresh.stdout
        printed = json.loads(again.stdout)
        assert printed["checksum"] == _checksum({k: v for k, v in printed.items() if k != "checksum"})
        assert (printed["checksum"] == doc["checksum"]) == (change == "compact")


class TestProduct:
    def test_b1_degree_one_diagonal(self, tmp_path):
        res = run_cli("product", "--basis", "b1", "--degree", "1", cwd=tmp_path)
        doc = json.loads(res.stdout)
        assert doc["basis"] == "b1" and doc["degree"] == 1
        diag = [t for t in doc["triples"] if t["a"] == t["b"] == t["c"]]
        assert [t["coeff"] for t in diag] == ["2", "2"]
        assert len(doc["triples"]) == 2

    def test_b2_single_product(self, tmp_path):
        res = run_cli(
            "product",
            "--basis", "b2", "--degree", "1",
            "--a", '{"i": 0, "nu": [1]}', "--b", '{"i": 0, "nu": [1]}',
            cwd=tmp_path,
        )
        doc = json.loads(res.stdout)
        assert doc["triples"] == [
            {"a": {"i": 0, "nu": [1]}, "b": {"i": 0, "nu": [1]}, "c": {"i": 0, "nu": [1]}, "coeff": "1"}
        ]

    def test_ordinary_unit_law_table(self, tmp_path):
        res = run_cli("product", "--basis", "ordinary", "--degree", "1", cwd=tmp_path)
        doc = json.loads(res.stdout)
        unit = {"i": 0, "nu": [1]}
        top = {"i": 1, "nu": []}
        triples = {
            (json.dumps(t["a"]), json.dumps(t["b"]), json.dumps(t["c"])): t["coeff"]
            for t in doc["triples"]
        }
        j = json.dumps
        assert triples[(j(unit), j(unit), j(unit))] == "1"
        assert triples[(j(unit), j(top), j(top))] == "1"
        assert triples[(j(top), j(unit), j(top))] == "1"
        assert (j(top), j(top), j(top)) not in triples

    @pytest.mark.parametrize(
        "select",
        [
            ("b1",),
            ("b1", "--a", '{"lambda": [2], "mu": [3]}'),
            ("b1", "--a", '{"lambda": [2], "mu": [3]}', "--b", '{"lambda": [1, 1], "mu": [2, 1]}'),
            ("b2",),
            ("b2", "--a", '{"i": 0, "nu": [1, 1]}'),
            ("ordinary",),
            ("ordinary", "--b", '{"i": 2, "nu": []}'),
        ],
    )
    def test_json_table_is_the_indent_two_dump(self, tmp_path, select):
        # the document is filled into a template (the b1 pair of distinct keys
        # gives an empty table); its bytes must be json.dumps(doc, indent=2)
        args = ["product", "-n", "2", "--cache-dir", str(tmp_path), "--basis", *select]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(args) == 0
        out = buf.getvalue()
        assert json.loads(out)["triples"] or select[-1].startswith('{"lambda": [1, 1]')
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_bad_key_is_usage_error(self, tmp_path, capsys):
        res = run_cli(
            "product", "--basis", "b2", "--degree", "1", "--a", '{"i": 5, "nu": []}',
            cwd=tmp_path,
        )
        assert res.returncode == 2
        # keys that int() would truncate or read character by character
        for basis, degree, key in (
            ("b2", 1, '{"i": 1.7, "nu": [1]}'),
            ("b2", 3, '{"i": 0, "nu": "21"}'),
            ("b2", 1, '{"i": true, "nu": []}'),
            ("b2", 1, '{"i": 0, "nu": [1.0]}'),
            ("b2", 1, "[0, [1]]"),
            ("b1", 1, '{"lambda": [true], "mu": [2]}'),
            ("b1", 1, '{"lambda": [1], "mu": "2"}'),
            ("ordinary", 1, '{"i": "1", "nu": []}'),
        ):
            for side in ("--a", "--b"):
                args = ["product", "--basis", basis, "-n", str(degree), side, key]
                with pytest.raises(SystemExit) as exc:
                    cli.main([*args, "--cache-dir", str(tmp_path)])
                assert exc.value.code == 2, args
                out, err = capsys.readouterr()
                assert out == "" and "cannot parse key" in err, args


class TestExitPath:
    """``python -m nestfock`` flushes and ends the process without interpreter teardown."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_table_arrives_complete_through_a_pipe(self, tmp_path, fmt):
        args = ["product", "--basis", "b2", "-n", "5", "--format", fmt, "--cache-dir", str(tmp_path)]
        res = subprocess.run(
            [sys.executable, "-m", "nestfock", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env=child_env(),
        )
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(args) == 0
        assert res.returncode == 0 and res.stderr == b""
        assert res.stdout == buf.getvalue().encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_final_flush_is_reported_as_before(self, tmp_path):
        # buffered output that cannot be written: the interpreter's own exit
        # reports it and ends with status 120
        env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            res = subprocess.run(
                [sys.executable, "-m", "nestfock", "pairs", "-n", "1"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                cwd=tmp_path,
                env=env,
            )
        assert res.returncode == 120 and "No space left on device" in res.stderr

    @pytest.mark.parametrize(
        "args, status, teardown",
        [
            (["pairs", "-n", "2"], 0, False),
            (["transition", "--from", "b2", "--to", "b1", "-n", "2", "--cache-dir", "damaged"], 1, False),
            (["product", "--basis", "b5", "-n", "2"], 2, True),
            (["transition", "--from", "b2", "--to", "b1", "-n", "2", "--cache-dir", "a-file"], 1, True),
        ],
        ids=["output", "cache-error", "usage-error", "uncaught-error"],
    )
    def test_run_skips_teardown_only_after_main_returns(self, tmp_path, args, status, teardown):
        # an atexit handler runs on the interpreter's own exit and not on os._exit
        (tmp_path / "damaged").mkdir()
        (tmp_path / "damaged" / "b2--b1--2.json").write_text("{not json")
        (tmp_path / "a-file").write_text("")
        probe = (
            "import atexit, sys\n"
            "atexit.register(sys.stderr.write, 'teardown\\n')\n"
            "from nestfock.cli import run\n"
            "run(sys.argv[1:])\n"
        )
        res = run_probe(probe, *args, cwd=tmp_path)
        assert res.returncode == status
        assert res.stderr.endswith("teardown\n") == teardown
        if status == 0:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(args) == 0
            assert res.stdout == buf.getvalue() and res.stderr == ""
        if args[-1] == "a-file":
            assert "Traceback" in res.stderr

    def test_console_script_enters_through_run(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'nestfock = "nestfock.cli:run"' in pyproject.read_text().splitlines()

    def test_damaged_cache_document_exits_one(self, tmp_path):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "b2--b1--2.json").write_text("{not json")
        res = run_cli("transition", "--from", "b2", "--to", "b1", "-n", "2", "--cache-dir", "cache", cwd=tmp_path)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error:")

    def test_usage_error_exits_two(self, tmp_path):
        res = run_cli("product", "--basis", "b5", "-n", "2", cwd=tmp_path)
        assert res.returncode == 2 and res.stdout == ""
        assert "invalid choice" in res.stderr

    def test_passing_verify_exits_zero(self, tmp_path):
        res = run_cli("verify", "--suite", "ordinary", "--max-n", "2", cwd=tmp_path)
        assert res.returncode == 0
        assert res.stdout.endswith(" checks passed\n") and "FAIL" not in res.stdout
        res = run_cli("verify", "--suite", "ordinary", "--max-n", "6", cwd=tmp_path)
        assert res.returncode == 0
        # the degree-n pieces have 1, 2, 4, 7, 12, 19, 30 keys: the unit is
        # checked on each key, the ring laws on each triple, the degrees on each pair
        names = [
            "unit exists with u_n = n!, n <= 6",
            "commutative and associative on basis triples, n <= 6",
            "degree additivity and Betti-zero vanishing, n <= 6",
            "top class squares to zero on the 1-point incidence scheme",
        ]
        assert res.stdout == (
            f"ok   {names[0]} (75 cases)\n"
            f"ok   {names[1]} (36003 cases)\n"
            f"ok   {names[2]} (1475 cases)\n"
            f"ok   {names[3]} (1 cases)\n"
            "4/4 checks passed\n"
        )
        # stdout stays deterministic: the seconds of each check go to stderr
        lines = res.stderr.splitlines()
        assert [line.split(" s  ", 1)[1] for line in lines] == names
        assert all(Fraction(line.split(" s  ", 1)[0]) >= 0 for line in lines)

    @pytest.mark.parametrize("suite", ["heisenberg", "diagrams"])
    def test_vacuous_checks_fail(self, tmp_path, suite):
        """At --max-n 0 no Heisenberg relation and no operator diagram has a case to compare."""
        res = run_cli("verify", "--suite", suite, "--max-n", "0", cwd=tmp_path)
        assert res.returncode == 1
        vacuous = [line for line in res.stdout.splitlines() if line.endswith(": vacuous")]
        assert len(vacuous) == {"heisenberg": 3, "diagrams": 4}[suite]
        assert all(line.startswith("FAIL ") for line in vacuous)


class TestBettiAndPairs:
    def test_betti(self, tmp_path):
        res = run_cli("betti", "--max-n", "2", cwd=tmp_path)
        assert json.loads(res.stdout) == [[1], [1, 1], [1, 2, 1]]

    def test_pairs(self, tmp_path):
        res = run_cli("pairs", "--degree", "2", cwd=tmp_path)
        assert json.loads(res.stdout) == [
            {"lambda": [2], "mu": [3]},
            {"lambda": [2], "mu": [2, 1]},
            {"lambda": [1, 1], "mu": [2, 1]},
            {"lambda": [1, 1], "mu": [1, 1, 1]},
        ]


class TestVerify:
    def test_passing_suite(self, tmp_path):
        res = run_cli("verify", "--suite", "hooks", "--max-n", "5", cwd=tmp_path)
        assert res.returncode == 0
        assert "ok" in res.stdout and "FAIL" not in res.stdout

    def test_unknown_suite_rejected(self, tmp_path):
        res = run_cli("verify", "--suite", "nonsense", cwd=tmp_path)
        assert res.returncode == 2

    def test_suite_choices_are_the_suites_of_verify(self):
        from nestfock import verify

        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
        assert suite.choices == tuple(verify.SUITES) + ("all",)

    def test_import_loads_neither_openssl_nor_csv(self, tmp_path):
        # only cache documents need hashlib and only csv output needs csv
        probe = (
            "import sys, nestfock.cli\n"
            "print(sorted({'hashlib', '_hashlib', 'csv'} & set(sys.modules)))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"


class TestStartup:
    """A call runs only the modules its subcommand needs."""

    @pytest.mark.parametrize("cache, fmt", [("cold", "json"), ("warm", "json"), ("warm", "csv")])
    def test_transition_runs_no_argparse_openssl_ring_symfunc_or_verify(self, tmp_path, cache, fmt):
        # the package registers its modules lazily, so an unrun module may sit
        # in sys.modules; a module whose code ran is a plain module object
        args = ["transition", "--from", "b3", "--to", "b1", "-n", "4", "--format", fmt, "--cache-dir", "c"]
        if cache == "warm":
            assert run_cli(*args, cwd=tmp_path).returncode == 0
        probe = (
            "import sys, types\n"
            "from nestfock.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "ran = sorted(m for m, v in sys.modules.items() if type(v) is types.ModuleType)\n"
            "watched = [m for m in ran if 'nestfock' in m or m in ('argparse', 'hashlib', '_hashlib')]\n"
            "sys.stderr.write(repr((status, watched)))\n"
        )
        res = run_probe(probe, *args, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stderr == repr((0, TRANSITION_MODULES))

    def test_benchmark_argument_lists_are_plain(self):
        for argv in (
            ["transition", "--from", "b3", "--to", "b1", "-n", "7", "--format", "csv", "--cache-dir", "/c"],
            ["product", "--basis", "ordinary", "-n", "5", "--format", "json", "--cache-dir", "/c"],
            ["verify", "--suite", "loop", "--max-n", "5", "--cache-dir", "/c"],
        ):
            assert vars(cli.read_plain(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["pairs", "-n", "2", "--cache-dir", "-x"],  # argparse: expected one argument
            ["pairs", "-n", "2", "--cache-dir", "--format"],
            ["pairs", "--deg", "2"],
            ["pairs", "--degree=2"],
            ["pairs", "-n", "x"],
            ["pairs", "-n", "2", "-h"],
            ["pairs"],
            ["transition", "--from", "b9", "--to", "b1", "-n", "1"],
            ["--format", "csv", "pairs", "-n", "2"],
        ],
    )
    def test_any_other_argument_list_is_left_to_argparse(self, argv):
        assert cli.read_plain(argv) is None

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(argument_lists(), st.lists(st.sampled_from([*cli.SUBCOMMANDS, *FLAGS, *VALUES]))))
    def test_a_plain_argument_list_reads_as_argparse_reads_it(self, argv):
        plain = cli.read_plain(argv)
        if plain is not None:
            assert vars(plain) == vars(cli.build_parser().parse_args(argv))
