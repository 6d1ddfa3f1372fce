"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.observe.events import ITERATION, EventBus, JsonlSink

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def seeds_dir(tmp_path):
    out = tmp_path / "seeds"
    code = main(["corpus", "--count", "6", "--out", str(out)])
    assert code == 0
    return out


class TestCorpusCommand:
    def test_writes_class_files(self, seeds_dir, capsys):
        files = list(seeds_dir.glob("*.class"))
        assert len(files) == 6
        assert files[0].read_bytes()[:4] == b"\xca\xfe\xba\xbe"

    def test_deterministic(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        main(["corpus", "--count", "3", "--out", str(first)])
        main(["corpus", "--count", "3", "--out", str(second)])
        for path in first.glob("*.class"):
            assert path.read_bytes() == (second / path.name).read_bytes()


class TestInspectCommand:
    def test_inspect_output(self, seeds_dir, capsys):
        target = sorted(seeds_dir.glob("*.class"))[0]
        assert main(["inspect", str(target)]) == 0
        output = capsys.readouterr().out
        assert "major version: 51" in output
        assert "Constant pool:" in output

    def test_no_pool_flag(self, seeds_dir, capsys):
        target = sorted(seeds_dir.glob("*.class"))[0]
        main(["inspect", str(target), "--no-pool"])
        assert "Constant pool:" not in capsys.readouterr().out


class TestRunCommand:
    def test_run_all_jvms(self, seeds_dir, capsys):
        target = sorted(seeds_dir.glob("*.class"))[0]
        main(["run", str(target)])
        output = capsys.readouterr().out
        for name in ("hotspot7", "hotspot8", "hotspot9", "j9", "gij"):
            assert name in output

    def test_run_single_jvm(self, seeds_dir, capsys):
        target = sorted(seeds_dir.glob("*.class"))[0]
        main(["run", str(target), "--jvm", "gij"])
        output = capsys.readouterr().out
        assert "gij" in output and "hotspot7" not in output


class TestFuzzCommand:
    def test_fuzz_writes_suite(self, tmp_path, capsys):
        out = tmp_path / "mutants"
        code = main(["fuzz", "--iterations", "40", "--seed-count", "20",
                     "--out", str(out)])
        assert code == 0
        assert list((out / "tests").glob("*.class"))
        assert list((out / "tests").glob("*.info"))   # LCOV traces
        assert (out / "manifest.json").exists()
        assert "accepted" in capsys.readouterr().out

    def test_fuzz_suite_difftests(self, tmp_path, capsys):
        out = tmp_path / "mutants"
        main(["fuzz", "--iterations", "40", "--seed-count", "20",
              "--out", str(out)])
        capsys.readouterr()
        main(["difftest", str(out / "tests")])
        assert "discrepancies" in capsys.readouterr().out

    def test_randfuzz_algorithm(self, capsys):
        code = main(["fuzz", "--algorithm", "randfuzz", "--iterations",
                     "20", "--seed-count", "10"])
        assert code == 0
        assert "randfuzz" in capsys.readouterr().out


class TestDifftestCommand:
    def test_difftest_directory(self, seeds_dir, capsys):
        main(["difftest", str(seeds_dir)])
        output = capsys.readouterr().out
        assert "discrepancies" in output

    def test_difftest_empty(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["difftest", str(empty)]) == 2

    def test_difftest_survives_dangling_pool_reference(self, tmp_path,
                                                       demo_class, capsys):
        from repro.classfile.constant_pool import CpInfo, CpTag
        from repro.classfile.writer import write_class
        from repro.jimple.to_classfile import compile_class

        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "Good.class").write_bytes(
            write_class(compile_class(demo_class)))
        broken = compile_class(demo_class)
        pool = broken.constant_pool
        # The "Completed!" String now names a Class entry, not a Utf8.
        index = next(i for i, info in pool if info.tag is CpTag.STRING)
        pool.add_at(index, CpInfo(CpTag.STRING, (broken.this_class,)))
        (suite / "Broken.class").write_bytes(write_class(broken))
        assert main(["difftest", str(suite)]) == 0
        # classes, all_invoked, all_rejected_same_stage, discrepancies
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[1:5] == ["2", "1", "1", "0"]


class TestReduceCommand:
    def test_reduce_discrepant_classfile(self, tmp_path, capsys):
        from repro.jimple import ClassBuilder, MethodBuilder
        from repro.jimple.to_classfile import compile_class_bytes

        builder = ClassBuilder("Fig2")
        builder.default_init()
        builder.main_printing()
        clinit = MethodBuilder("<clinit>", modifiers=["public", "abstract"])
        clinit.abstract_body()
        builder.method(clinit.build())
        path = tmp_path / "Fig2.class"
        path.write_bytes(compile_class_bytes(builder.build()))
        assert main(["reduce", str(path)]) == 0
        output = capsys.readouterr().out
        assert "JVM discrepancy report" in output
        assert "classification:" in output

    def test_reduce_clean_classfile_fails(self, tmp_path, capsys):
        from repro.jimple import ClassBuilder
        from repro.jimple.to_classfile import compile_class_bytes

        builder = ClassBuilder("Clean")
        builder.default_init()
        builder.main_printing()
        path = tmp_path / "Clean.class"
        path.write_bytes(compile_class_bytes(builder.build()))
        assert main(["reduce", str(path)]) == 2


class TestUsageErrors:
    """Invalid options exit 2 with a usage message, before any work."""

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--batch", "0"],
        ["campaign", "--batch", "-1"],
        ["fuzz", "--jobs", "0"],
        ["difftest", "--jobs", "-2", "seeds"],
        ["fuzz", "--iterations", "-3"],
        ["fuzz", "--seed-count", "0"],
        ["campaign", "--seed-count", "0"],
        ["fuzz", "--checkpoint-dir", "ckpt", "--checkpoint-every", "0"],
        ["campaign", "--checkpoint-every", "0"],
    ], ids=["fuzz-batch-0", "campaign-batch-neg1", "fuzz-jobs-0",
            "difftest-jobs-neg2", "fuzz-iterations-neg3",
            "fuzz-seed-count-0", "campaign-seed-count-0",
            "fuzz-checkpoint-every-0", "campaign-checkpoint-every-0"])
    def test_counts_below_one_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "must be >= 1" in err

    @pytest.mark.parametrize("command", ["fuzz", "campaign"])
    @pytest.mark.parametrize("value", ["7", "-1"])
    def test_exec_fraction_outside_unit_interval_rejected(
            self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--exec-fraction", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "must be in [0, 1]" in err

    def test_cmp_coverage_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--cmp-coverage"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --cmp-coverage" in \
            capsys.readouterr().err


class TestBrokenPipe:
    """``repro ... | head -1``: the reader leaves before the output ends."""

    def test_closed_stdout_ends_without_a_traceback(self, tmp_path):
        log = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = JsonlSink(log)
        bus.add_sink(sink)
        for index in range(4000):  # ~0.5 MB: more than a pipe buffers
            bus.emit(ITERATION, algorithm="classfuzz[stbr]", index=index,
                     accepted=index % 3 == 0, tests=index // 3, pool=40)
        sink.close()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "observe", "replay", str(log)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC))
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b"#")
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
