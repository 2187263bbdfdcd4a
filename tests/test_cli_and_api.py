"""Tests for the command-line front-end and the public package API."""

import struct

import pytest

import repro
from repro.litmus.library import by_name
from repro.tools.cli import main


@pytest.fixture()
def mp_litmus(tmp_path):
    path = tmp_path / "MP.litmus"
    path.write_text(by_name("MP").source)
    return str(path)


class TestCli:
    def test_run_command(self, mp_litmus, capsys):
        assert main(["run", mp_litmus]) == 0
        output = capsys.readouterr().out
        assert "Test MP: Allowed" in output
        assert "witnessed" in output

    def test_run_prints_outcomes(self, mp_litmus, capsys):
        main(["run", mp_litmus])
        output = capsys.readouterr().out
        assert "1:r4=" in output

    def test_partial_verdict_claims_no_proof(self, tmp_path, capsys):
        """A context-bounded SB+syncs explores part of the space and sees
        no witness: the condition line must say that, not "never
        satisfied", which reads as a proof of absence."""
        path = tmp_path / "SB+syncs.litmus"
        path.write_text(by_name("SB+syncs").source)
        assert main(["run", str(path), "--context-bound", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Test SB+syncs: StateLimit"
        assert lines[-2:] == [
            "Condition (exists): not witnessed in the states explored "
            "(search incomplete)",
            "  !! context bound 1 truncated the search",
        ]
        assert not any("never satisfied" in line for line in lines)

    def test_complete_verdict_output_unchanged(self, tmp_path, capsys):
        path = tmp_path / "SB+syncs.litmus"
        path.write_text(by_name("SB+syncs").source)
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Test SB+syncs: Forbidden"
        assert lines[1].startswith("States: 1125  final: 32  time: ")
        assert len(lines) == 6
        assert lines[-1] == "Condition (exists): never satisfied"

    def test_format_verdict_condition_line(self):
        from repro.service.client import format_verdict

        def condition(**fields):
            payload = dict(name="T", status="S", quantifier="exists")
            payload.update(fields)
            return format_verdict(payload)[-1]

        assert condition(witnessed=False, complete=True) == (
            "Condition (exists): never satisfied"
        )
        assert condition(witnessed=False, complete=False) == (
            "Condition (exists): not witnessed in the states explored "
            "(search incomplete)"
        )
        # A witness found by a partial search is still a real execution.
        assert condition(witnessed=True, complete=False) == (
            "Condition (exists): witnessed"
        )

    def test_elf_command(self, tmp_path, capsys):
        from repro.elf.writer import make_executable
        from repro.isa.assembler import Assembler
        from repro.isa.model import default_model

        assembler = Assembler(default_model())
        words, _ = assembler.assemble_program(
            ["li r3,5", "addi r3,r3,2"], 0x10000
        )
        blob = make_executable(0x10000, words, 0x20000, b"", {})
        path = tmp_path / "prog.elf"
        path.write_bytes(blob)
        assert main(["elf", str(path)]) == 0
        output = capsys.readouterr().out
        assert "r3 = 0x7" in output

    def test_interactive_quits_cleanly(self, mp_litmus, monkeypatch, capsys):
        inputs = iter(["0", "q"])
        monkeypatch.setattr("builtins.input", lambda *a: next(inputs))
        assert main(["interactive", mp_litmus]) == 0
        output = capsys.readouterr().out
        assert "Enabled transitions" in output
        assert "Storage subsystem state" in output

    def test_gen_lifted_caps_flags(self, capsys):
        assert main(
            ["gen", "--seed", "3", "--size", "5",
             "--max-threads", "6", "--max-run", "4"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.count("POWER ") == 5
        assert "generated 5 distinct tests" in captured.err

    def test_gen_check_exits_nonzero_on_violation(self, monkeypatch, capsys):
        # The exit-code contract: any oracle violation fails the run, so
        # CI gen smoke jobs cannot scroll past a soundness break.
        from repro.testgen import concurrent

        def fake_check_suite(tests, jobs=None, max_states=None,
                             reduction="none", context_bound=None,
                             params=None):
            checks = [
                concurrent.OracleCheck(
                    name=test.name,
                    family=test.family,
                    edge_names=test.edge_names,
                    expected="Forbidden",
                    status="Allowed",
                    ok=False,
                    oracle="axiomatic",
                )
                for test in tests
            ]
            return concurrent.OracleReport(
                checks=checks, jobs=1, wall_seconds=0.0
            )

        monkeypatch.setattr(concurrent, "check_suite", fake_check_suite)
        assert main(["gen", "--seed", "0", "--size", "2", "--check"]) == 1
        assert "VIOLATION" in capsys.readouterr().err

    def test_gen_check_clean_suite_exits_zero(self, capsys):
        assert main(
            ["gen", "--seed", "0", "--size", "2", "--check", "--jobs", "1"]
        ) == 0
        err = capsys.readouterr().err
        assert "0 violation(s)" in err


class TestBadSearchValues:
    """A value the engine would refuse is a usage error on every verb,
    reported before anything is explored or served."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["litmus", "{test}", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (["corpus", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (["gen", "--size", "1", "--check", "--jobs", "-1"],
             "jobs must be >= 1, got -1"),
            (["serve", "--port", "0", "--jobs", "0"],
             "jobs must be >= 1, got 0"),
            (["run", "{test}", "--context-bound", "-1"],
             "option 'context_bound' must be an integer >= 0"),
            (["litmus", "{test}", "--max-states", "-5"],
             "option 'max_states' must be an integer >= 1"),
            (["gen", "--size", "1", "--check", "--max-states", "0"],
             "option 'max_states' must be an integer >= 1"),
            (["client", "run", "{test}", "--max-states", "0"],
             "option 'max_states' must be an integer >= 1"),
            (["litmus", "{test}", "--max-states", "many"],
             "invalid int value: 'many'"),
        ],
        ids=[
            "litmus-jobs", "corpus-jobs", "gen-jobs", "serve-jobs",
            "run-context-bound", "litmus-max-states", "gen-max-states",
            "client-max-states", "not-an-int",
        ],
    )
    def test_usage_error(self, argv, message, mp_litmus, monkeypatch,
                         capsys):
        import repro.service.daemon as daemon

        # A daemon started by mistake would serve forever; fail instead.
        monkeypatch.setattr(daemon, "serve", lambda **kwargs: 0)
        argv = [mp_litmus if arg == "{test}" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_states": 0},
            {"max_states": -5},
            {"context_bound": -1},
            {"reduction": "fast"},
            {"symmetry": True},
            {"max_states": 2.5},
        ],
        ids=["max_states-zero", "max_states-negative",
             "context_bound-negative", "reduction-unknown", "symmetry-true",
             "max_states-float"],
    )
    def test_every_request_construction_is_checked(self, fields):
        from repro.service.engine import EngineRequest

        (option,) = fields
        with pytest.raises(ValueError, match=f"option '{option}' must be"):
            EngineRequest(source=by_name("MP").source, **fields)

    def test_non_string_source_is_refused(self):
        from repro.service.engine import EngineRequest

        with pytest.raises(ValueError, match="'source' must be a string"):
            EngineRequest(source=None)


class TestBadInputPaths:
    """An input file that cannot be read, parsed or assembled is a
    one-line error naming the path (exit code 2), not a traceback."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        from repro.elf.writer import make_executable

        files = {
            "bad-mnemonic": by_name("MP").source.replace("stw", "frob", 1),
            "syntax": "PPC broken\nno initial state here\n",
        }
        paths = {"missing": str(tmp_path / "missing.litmus"),
                 "directory": str(tmp_path)}
        for name, text in files.items():
            path = tmp_path / f"{name}.litmus"
            path.write_text(text)
            paths[name] = str(path)
        binary = tmp_path / "binary.litmus"
        binary.write_bytes(b"\xff\xfe\x00litmus")
        paths["binary"] = str(binary)
        # A valid ELF header whose program headers are cut off.
        truncated = tmp_path / "truncated.elf"
        truncated.write_bytes(
            make_executable(0x10000, [0x60000000], 0x20000, b"", {})[:80]
        )
        paths["truncated"] = str(truncated)
        return paths

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "{missing}"], "No such file or directory"),
            (["run", "{directory}"], "Is a directory"),
            (["run", "{bad-mnemonic}"], "unknown mnemonic 'frob'"),
            (["run", "{syntax}"], "missing initial-state block"),
            (["run", "{binary}"], "can't decode byte 0xff"),
            (["interactive", "{missing}"], "No such file or directory"),
            (["interactive", "{bad-mnemonic}"], "unknown mnemonic 'frob'"),
            (["litmus", "{missing}", "--jobs", "1"],
             "No such file or directory"),
            (["litmus", "{bad-mnemonic}", "--jobs", "2"],
             "unknown mnemonic 'frob'"),
            (["litmus", "{syntax}"], "missing initial-state block"),
            (["client", "run", "{missing}"], "No such file or directory"),
            (["client", "submit", "{directory}"], "Is a directory"),
            (["client", "submit", "{syntax}"], "missing initial-state block"),
            (["elf", "{missing}"], "No such file or directory"),
            (["elf", "{syntax}"], "file shorter than an ELF header"),
            (["elf", "{truncated}"],
             "program header extends past end of file"),
        ],
        ids=[
            "run-missing", "run-directory", "run-bad-mnemonic", "run-syntax",
            "run-binary", "interactive-missing", "interactive-bad-mnemonic",
            "litmus-missing", "litmus-bad-mnemonic", "litmus-syntax",
            "client-run-missing", "client-submit-directory",
            "client-submit-syntax", "elf-missing", "elf-not-elf",
            "elf-truncated",
        ],
    )
    def test_one_line_error_naming_the_path(self, argv, message, inputs,
                                            capsys):
        argv = [
            inputs[arg[1:-1]] if arg.startswith("{") else arg for arg in argv
        ]
        (path,) = [arg for arg in argv if arg in inputs.values()]
        # Nothing listens here: a client verb that got as far as the
        # network would fail with a different message and exit code 1.
        argv = (argv[:1] + ["--url", "http://127.0.0.1:9"] + argv[1:]
                if argv[0] == "client" else argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"ppcmem2: error: {path}: ")
        assert message in line


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_quickstart_surface(self):
        test = repro.parse_litmus(by_name("MP+syncs").source)
        result = repro.run_litmus(test)
        assert result.status == "Forbidden"

    def test_default_model_is_shared(self):
        assert repro.default_model() is repro.default_model()

    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_corpus_export(self):
        assert len(repro.litmus_corpus()) >= 40

    def test_sequential_machine_export(self):
        machine = repro.SequentialMachine()
        machine.set_gpr(1, 7)
        assert machine.gpr(1).to_int() == 7
