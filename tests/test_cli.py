"""CLI: subcommands, formats, exit codes, oracle mode."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadcsp import cli
from quadcsp.cli import (
    EXIT_INFEASIBLE,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_USAGE,
    RunConfig,
    main,
    run,
)
import quadcsp
import quadcsp.solver as solver_module
from quadcsp.fmoracle import ResourceLimitError
from quadcsp.matrix2d import to_json_obj
from reference import from_json_obj

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def invoke(command, path, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    cfg = RunConfig(command=command, input_path=str(path), **kwargs)
    code = run(cfg, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_feasible_fixture(self):
        code, out, _ = invoke("check", FIXTURES / "mixed_feasible.txt")
        assert code == EXIT_OK
        assert out.strip() == "feasible"

    def test_infeasible_fixture(self):
        code, out, _ = invoke("check", FIXTURES / "dbm_infeasible.txt")
        assert code == EXIT_INFEASIBLE
        assert out.strip() == "infeasible"

    def test_json_format(self):
        code, out, _ = invoke(
            "check", FIXTURES / "handshake.txt", fmt="json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"feasible": True}

    def test_oracle_agreement(self):
        code, _, err = invoke(
            "check", FIXTURES / "negative_cycle.txt", oracle=True
        )
        assert code == EXIT_INFEASIBLE
        assert "DISAGREEMENT" not in err


class TestOracleDisagreement:
    """An oracle that contradicts the closure is exit 3 with one
    ``ORACLE DISAGREEMENT`` line, checked before anything is printed."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "command", ["check", "close", "solve", "bounds", "explain"]
    )
    @pytest.mark.parametrize(
        "name", ["handshake.txt", "negative_cycle.txt"]
    )
    def test_exit_3_and_no_stdout(self, monkeypatch, command, fmt, name):
        real = cli.fm_feasible
        monkeypatch.setattr(cli, "fm_feasible", lambda s: not real(s))
        code, out, err = invoke(command, FIXTURES / name, fmt=fmt, oracle=True)
        assert code == EXIT_ORACLE_MISMATCH
        assert err.startswith("ORACLE DISAGREEMENT: ")
        assert err.count("\n") == 1
        assert out == ""


class TestClose:
    def test_json_roundtrips_matrix(self):
        code, out, _ = invoke(
            "close", FIXTURES / "mixed_feasible.txt", fmt="json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["feasible"] is True
        matrix = from_json_obj(doc["matrix"])
        assert to_json_obj(matrix) == doc["matrix"]

    def test_text_is_delimited(self):
        code, out, _ = invoke("close", FIXTURES / "mixed_feasible.txt")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines and all(len(l.split("\t")) == 3 for l in lines)

    def test_infeasible_exit_code(self):
        code, _, _ = invoke(
            "close", FIXTURES / "negative_cycle.txt", fmt="json"
        )
        assert code == EXIT_INFEASIBLE


class TestSolveCommand:
    def test_handshake_solves_with_witness(self):
        code, out, _ = invoke(
            "solve", FIXTURES / "handshake.txt", fmt="json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["subclass"] == "Octagon"
        assert doc["exactness"] == "Exact"
        assert doc["witness"] is not None
        assert doc["witness"][0] == "0"
        assert doc["domains"] == [["2", "7"], ["2", "7"]]

    def test_unbounded_without_witness(self):
        code, out, _ = invoke(
            "solve", FIXTURES / "mixed_feasible.txt", fmt="json"
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["witness"] is None

    def test_witness_anyway(self):
        code, out, _ = invoke(
            "solve",
            FIXTURES / "mixed_feasible.txt",
            fmt="json",
            witness_anyway=True,
        )
        doc = json.loads(out)
        assert doc["witness"] is not None

    def test_text_format_lines(self):
        code, out, _ = invoke("solve", FIXTURES / "handshake.txt")
        assert code == EXIT_OK
        assert "feasible" in out
        assert "subclass: Octagon / Exact" in out
        assert "witness:" in out


class TestBounds:
    def test_intervals(self):
        code, out, _ = invoke("bounds", FIXTURES / "handshake.txt")
        assert code == EXIT_OK
        assert "x1 in [2, 7]" in out
        assert "x2 in [2, 7]" in out

    def test_infeasible(self):
        code, out, _ = invoke("bounds", FIXTURES / "dbm_infeasible.txt")
        assert code == EXIT_INFEASIBLE


class TestSubclass:
    def test_octagon_exact(self, tmp_path):
        f = tmp_path / "oct.txt"
        f.write_text("x1 + x2 <= 5\n")
        code, out, _ = invoke("subclass", f)
        assert code == EXIT_OK
        assert out.strip() == "Octagon / Exact"

    def test_general_upper_approx(self):
        code, out, _ = invoke("subclass", FIXTURES / "mixed_feasible.txt")
        assert out.strip() == "General / UpperApprox"


class TestExplain:
    def test_negative_cycle_certificate(self):
        code, out, _ = invoke(
            "explain", FIXTURES / "negative_cycle.txt", fmt="json"
        )
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["cycle"]["coeffs"] == ["1", "1"]
        assert doc["cycle"]["weight"] == "-1"
        assert len(doc["cycle"]["constraints"]) == 2

    def test_feasible_input(self):
        code, out, _ = invoke("explain", FIXTURES / "cycle_unit_coeffs.txt")
        assert code == EXIT_OK
        assert out.strip() == "feasible"

    def test_zero_vector_contradiction(self, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("x1 - x1 <= -1\n")
        code, out, _ = invoke("explain", f, fmt="json")
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["cycle"]["coeffs"] == ["1"]

    def test_text_certificate(self):
        code, out, _ = invoke("explain", FIXTURES / "dbm_infeasible.txt")
        assert code == EXIT_INFEASIBLE
        assert "negative combination" in out
        assert "< 0" in out

    def test_cycle_size_cap_reported(self, tmp_path):
        # minimal negative cycle has three members; capping enumeration
        # at pairs must still report infeasibility, certificate-less
        f = tmp_path / "three.txt"
        f.write_text("x1 - x2 <= -1\nx2 - x3 <= -1\nx3 - x1 <= -1\n")
        code, out, _ = invoke("explain", f, max_cycle_size=2)
        assert code == EXIT_INFEASIBLE
        assert "no simple-cycle certificate" in out
        code, out, _ = invoke("explain", f, max_cycle_size=3)
        assert code == EXIT_INFEASIBLE
        assert "negative combination" in out


class TestMainEntry:
    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent/file.txt"]) == EXIT_USAGE

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("x1 <= 1.5\n")
        assert main(["check", str(f)]) == EXIT_USAGE

    def test_bad_flag_value(self, tmp_path, capsys):
        f = tmp_path / "ok.txt"
        f.write_text("x1 <= 1\n")
        assert main(["check", str(f), "--max-sweeps", "0"]) == EXIT_USAGE
        assert "--max-sweeps must be positive" in assert_one_error_line(capsys)
        assert main(["explain", str(f), "--max-cycle-size", "0"]) == EXIT_USAGE
        assert "--max-cycle-size must be positive" in assert_one_error_line(
            capsys
        )

    def test_main_runs_check(self, tmp_path, capsys):
        f = tmp_path / "ok.txt"
        f.write_text("x1 <= 1\n")
        assert main(["check", str(f)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "feasible"

    def test_explain_list_cap(self, tmp_path, capsys):
        # an infeasible verdict over 16 constraints is not enumerated
        f = tmp_path / "many.txt"
        f.write_text("\n".join([*(f"x1 <= {k}" for k in range(19)), "x1 >= 30"]))
        assert main(["explain", str(f)]) == EXIT_USAGE
        assert "explain handles at most 16 constraints" in assert_one_error_line(
            capsys
        )

    @pytest.mark.parametrize(
        "fmt, out",
        [("text", "feasible\n"), ("json", '{"feasible":true,"cycle":null}\n')],
        ids=["text", "json"],
    )
    def test_explain_feasible_over_list_cap(self, tmp_path, capsys, fmt, out):
        # a feasible verdict enumerates nothing, so the cap does not apply
        f = tmp_path / "many.txt"
        f.write_text("\n".join(f"x1 <= {k}" for k in range(17)))
        assert main(["explain", str(f), "--format", fmt]) == EXIT_OK
        assert capsys.readouterr() == (out, "")

    def test_shared_parser_keeps_no_flags(self, tmp_path, capsys):
        # main reuses one parser per process; a flag given to one call
        # must not leak into the next
        f = tmp_path / "three.txt"
        f.write_text("x1 - x2 <= -1\nx2 - x3 <= -1\nx3 - x1 <= -1\n")
        assert main(["explain", str(f), "--max-cycle-size", "2"]) == (
            EXIT_INFEASIBLE
        )
        assert "no simple-cycle certificate" in capsys.readouterr().out
        assert main(["explain", str(f)]) == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert "negative combination" in out
        assert "total weight -3 < 0" in out

    def test_too_many_variables_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "wide.txt"
        f.write_text("x40 <= 3\n")
        assert main(["check", str(f)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"x1 <= 1\n\xff\xfe\n")
        assert main(["check", str(f)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "zero.txt"
        f.write_text("x1 <= 2\nx1 - x2 <= 1/0\n")
        assert main(["solve", str(f)]) == EXIT_USAGE
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero denominator" in err and "Traceback" not in err
        assert captured.out == ""

    def test_comments_only_file(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n\n")
        assert main(["check", str(f)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "feasible"

    def test_max_sweeps_flag_accepted(self, tmp_path, capsys):
        f = tmp_path / "ok.txt"
        f.write_text("x1 - x2 <= 1\nx2 - x1 <= -2\n")
        assert main(["check", str(f), "--max-sweeps", "50"]) == EXIT_INFEASIBLE


# Infeasible, but one closure round finds no contradiction: a run capped
# there has no verdict.
CAPPED = """x2 + x3 <= 2
x3 - x1 - x2 <= 3
- x1 - x3 <= 6
- x3 - x4 <= -8
x3 + x4 - x2 <= -2
x4 + x4 - x3 <= -3
x2 - x1 <= 0
"""


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


class TestNoVerdict:
    """Exit 4: a work limit reached before a verdict.  Exit 3 also covers
    the solver's internal errors."""

    @pytest.mark.parametrize(
        "command", ["check", "close", "solve", "bounds", "explain"]
    )
    def test_round_cap_without_contradiction(self, command, tmp_path, capsys):
        f = tmp_path / "capped.txt"
        f.write_text(CAPPED)
        assert main([command, str(f), "--max-sweeps", "1"]) == EXIT_LIMIT
        assert "round cap" in assert_one_error_line(capsys)
        assert main([command, str(f), "--max-sweeps", "50"]) == EXIT_INFEASIBLE

    def test_round_cap_comes_before_oracle(self, tmp_path, capsys):
        f = tmp_path / "capped.txt"
        f.write_text(CAPPED)
        argv = ["check", str(f), "--max-sweeps", "1", "--oracle"]
        assert main(argv) == EXIT_LIMIT
        assert_one_error_line(capsys)

    def test_oracle_row_budget(self, monkeypatch, capsys):
        def over_budget(system):
            raise ResourceLimitError("elimination exceeds 20000 rows")

        monkeypatch.setattr(cli, "fm_feasible", over_budget)
        path = str(FIXTURES / "handshake.txt")
        assert main(["check", path, "--oracle"]) == EXIT_LIMIT
        assert "20000 rows" in assert_one_error_line(capsys)

    def test_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(solver_module, "satisfies", lambda c, nu: False)
        path = str(FIXTURES / "handshake.txt")
        assert main(["solve", path]) == EXIT_ORACLE_MISMATCH
        assert "internal error: witness violates" in assert_one_error_line(
            capsys
        )


class TestStdoutClosed:
    """A reader that closes stdout early is not an error: nothing on
    stderr, and the exit code of the verdict."""

    @pytest.mark.parametrize(
        "command, fixture, code",
        [
            ("close", "mixed_feasible.txt", EXIT_OK),
            ("explain", "negative_cycle.txt", EXIT_INFEASIBLE),
        ],
    )
    def test_no_reader(self, command, fixture, code):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the first write: it fails
        paths = [str(Path(quadcsp.__file__).resolve().parent.parent)]
        paths += filter(None, [os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        argv = [
            sys.executable, "-m", "quadcsp.cli", command,
            str(FIXTURES / fixture), "--format", "json",
        ]
        try:
            proc = subprocess.run(
                argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == code


class TestFixtureCorpus:
    """Exit codes over the shipped corpus are a stable contract."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("mixed_feasible.txt", EXIT_OK),
            ("cycle_unit_coeffs.txt", EXIT_OK),
            ("cycle_doubled_coeff.txt", EXIT_OK),
            ("handshake.txt", EXIT_OK),
            ("dbm_infeasible.txt", EXIT_INFEASIBLE),
            ("negative_cycle.txt", EXIT_INFEASIBLE),
        ],
    )
    def test_check_exit_codes(self, name, expected):
        code, _, _ = invoke("check", FIXTURES / name, oracle=True)
        assert code == expected

    @pytest.mark.parametrize(
        "name",
        [
            "mixed_feasible.txt",
            "cycle_unit_coeffs.txt",
            "cycle_doubled_coeff.txt",
            "handshake.txt",
        ],
    )
    def test_close_json_roundtrip(self, name):
        code, out, _ = invoke("close", FIXTURES / name, fmt="json")
        doc = json.loads(out)
        matrix = from_json_obj(doc["matrix"])
        assert to_json_obj(matrix) == doc["matrix"]


GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_v1.json").read_text()
)


def _verdict(command, fmt, stdout):
    """The feasible/infeasible verdict of a close or solve output."""
    if fmt == "json":
        return json.loads(stdout)["feasible"]
    first = stdout.splitlines()[0]
    if command == "close":  # "# n=... feasible=true|false"
        return first.endswith("feasible=true")
    return first == "feasible"


class TestGoldenV1:
    """stdout and exit code of every command x format x fixture, byte
    for byte, as recorded in ``golden_v1.json``; a key is the command,
    any flags, the format and the fixture.  The matrix that close and
    solve print for an infeasible input is its stop state, which the v1
    contract leaves open: there only the exit code and the verdict are
    recorded."""

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_output_bytes(self, key, capsys):
        command, *flags, fmt, name = key.split()
        expected = GOLDEN[key]
        code = main([command, str(FIXTURES / name), "--format", fmt, *flags])
        out, err = capsys.readouterr()
        assert err == ""
        assert code == expected["exit"]
        if "stdout" in expected:
            assert out == expected["stdout"]
        else:
            assert _verdict(command, fmt, out) is expected["feasible"]
