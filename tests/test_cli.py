"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self):
        args = build_parser().parse_args(["count", "parity"])
        assert args.length == 10
        assert args.epsilon == 0.3

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "not_a_family"])

    def test_bad_family_arg_format(self):
        with pytest.raises(SystemExit):
            main(["count", "parity", "--family-arg", "oops"])


class TestCommands:
    def test_count_exact_only(self, capsys):
        assert main(["count", "parity", "-n", "6", "--exact"]) == 0
        output = capsys.readouterr().out
        assert "exact" in output
        assert "32" in output  # words of length 6 with an even number of ones

    def test_count_compare(self, capsys):
        assert main(
            ["count", "no_consecutive_ones", "-n", "6", "--compare", "--seed", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "fpras" in output and "exact" in output
        assert "rel_error" in output

    def test_count_with_family_arg(self, capsys):
        assert main(
            ["count", "substring", "--family-arg", "pattern=11", "-n", "6", "--exact"]
        ) == 0
        assert "exact" in capsys.readouterr().out

    def test_count_fpras_only(self, capsys):
        assert main(["count", "parity", "-n", "5", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "samples_per_state" in output

    def test_sample_command(self, capsys):
        assert main(
            ["sample", "no_consecutive_ones", "-n", "6", "-c", "3", "--seed", "2"]
        ) == 0
        output = capsys.readouterr().out.strip().splitlines()
        words = output[-3:]
        assert len(words) == 3
        for word in words:
            assert len(word) == 6
            assert "11" not in word

    def test_families_command(self, capsys):
        assert main(["families"]) == 0
        output = capsys.readouterr().out
        assert "substring" in output and "ladder" in output

    def test_params_command(self, capsys):
        assert main(["params", "-m", "10", "-n", "20", "--epsilon", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "ns_paper" in output
        assert "ns_operational" in output

    def test_experiment_command(self, capsys):
        assert main(["experiment", "E1"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output
        assert "elapsed" in output

    def test_experiment_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "E99"])


class TestOneLineErrors:
    @pytest.mark.parametrize(
        "arguments, named",
        [
            (["parity", "--family-arg", "bogus=2"], "unexpected keyword argument 'bogus'"),
            (["substring"], "missing a required argument: 'pattern'"),
        ],
        ids=["unknown-parameter", "missing-parameter"],
    )
    def test_family_parameters_the_builder_does_not_take(self, capsys, arguments, named):
        assert main(["count", *arguments, "--length", "4"]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1 and error.startswith("error: family ")
        assert named in error and "takes parameters [" in error

    def test_negative_sample_count_fails_before_counting(self, capsys, monkeypatch):
        from repro.counting.uniform import UniformWordSampler

        def counted(self):
            raise AssertionError("the counting pass ran")

        monkeypatch.setattr(UniformWordSampler, "prepare", counted)
        assert main([
            "sample", "substring", "--family-arg", "pattern=101", "--length", "6",
            "--count", "-2",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be a non-negative int, got -2\n"

    def test_reader_closing_stdout_leaves_no_traceback(self):
        source = str(Path(repro.__file__).resolve().parent.parent)
        environment = dict(os.environ, PYTHONPATH=source)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "families"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=environment,
        )
        process.stdout.close()
        with process.stderr:
            error = process.stderr.read().decode()
        assert process.wait(timeout=60) == 1
        assert "Traceback" not in error and "BrokenPipeError" not in error
