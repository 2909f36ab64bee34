"""The CLI's help and usage errors, pinned byte for byte: stdout, stderr
and the exit code of ``z2spec --help``, of each subcommand's ``--help``
(also after the file), of a missing subcommand, of an invalid choice, of an
unknown option and of ``verify --bound 0`` (also as ``--bound=0``).  A
change to how argv is read must keep them.

argparse lays the text out itself, and its layout differs between Python
minor versions, so the bytes are compared on the minor they were recorded
with (``PINNED_ON``); the exit codes and the stream each text goes to are
compared on every version.  ``COLUMNS`` fixes the wrapping width.

``cli._read_argv``, the strict reader of plainly written commands, is
checked against argparse on a grid of argvs, and the benchmark's and the
README's commands must run without building an argparse parser.
"""

import argparse
import importlib.util
import itertools
import shlex
import sys
from pathlib import Path

import pytest

from z2spec.cli import _COMMANDS, _build_parser, _read_argv, main
from z2spec.verify import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent

PINNED_ON = (3, 11)

USAGE = "usage: z2spec [-h] {build,verify,spec,export-dot} ...\n"

CASES = {
    "help": (["--help"], 0, """\
usage: z2spec [-h] {build,verify,spec,export-dot} ...

Finite parity-graded commutative rings: build instances, verify the structure
theorems, and export spectra.

positional arguments:
  {build,verify,spec,export-dot}
    build               parse and summarize an instance
    verify              run verification suites
    spec                list the spectrum
    export-dot          Graphviz view of the spectrum correspondence

options:
  -h, --help            show this help message and exit
""", ""),
    "build-help": (["build", "--help"], 0, """\
usage: z2spec build [-h] [--bound BOUND] [--format {json,text}] file

positional arguments:
  file                  instance file (JSON)

options:
  -h, --help            show this help message and exit
  --bound BOUND         enumeration bound override (default 256)
  --format {json,text}
""", ""),
    "verify-help": (["verify", "--help"], 0, """\
usage: z2spec verify [-h] [--bound BOUND]
                     [--suite {field,homeo,ideals,maximal,norm,radical,spectrum,all}]
                     [--format {json,text}] [--timings]
                     file

positional arguments:
  file                  instance file (JSON)

options:
  -h, --help            show this help message and exit
  --bound BOUND         enumeration bound override (default 256)
  --suite {field,homeo,ideals,maximal,norm,radical,spectrum,all}
                        suite to run (repeatable; default all)
  --format {json,text}
  --timings             include per-check timings in JSON output
""", ""),
    "spec-help": (["spec", "--help"], 0, """\
usage: z2spec spec [-h] [--bound BOUND] [--graded] [--format {json,text}] file

positional arguments:
  file                  instance file (JSON)

options:
  -h, --help            show this help message and exit
  --bound BOUND         enumeration bound override (default 256)
  --graded              graded spectrum instead of the classical one
  --format {json,text}
""", ""),
    "export-dot-help": (["export-dot", "--help"], 0, """\
usage: z2spec export-dot [-h] [--bound BOUND] file

positional arguments:
  file           instance file (JSON)

options:
  -h, --help     show this help message and exit
  --bound BOUND  enumeration bound override (default 256)
""", ""),
    "no-subcommand": ([], 2, "", USAGE + """\
z2spec: error: the following arguments are required: command
"""),
    "bound-zero": (["verify", "instance.json", "--bound", "0"], 2, "", USAGE + """\
z2spec: error: argument --bound: must be >= 1, got 0
"""),
    "spec-help-after-file": (["spec", "instance.json", "--help"], 0, """\
usage: z2spec spec [-h] [--bound BOUND] [--graded] [--format {json,text}] file

positional arguments:
  file                  instance file (JSON)

options:
  -h, --help            show this help message and exit
  --bound BOUND         enumeration bound override (default 256)
  --graded              graded spectrum instead of the classical one
  --format {json,text}
""", ""),
    "invalid-choice": (["verify", "instance.json", "--format", "xml"], 2, "", """\
usage: z2spec verify [-h] [--bound BOUND]
                     [--suite {field,homeo,ideals,maximal,norm,radical,spectrum,all}]
                     [--format {json,text}] [--timings]
                     file
z2spec verify: error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')
"""),
    "unknown-option": (["spec", "instance.json", "--graded", "--method", "constructive"],
                       2, "", USAGE + """\
z2spec: error: unrecognized arguments: --method constructive
"""),
    "bound-zero-equals": (["verify", "instance.json", "--bound=0"], 2, "", USAGE + """\
z2spec: error: argument --bound: must be >= 1, got 0
"""),
}


@pytest.mark.parametrize("argv, code, out, err", CASES.values(), ids=CASES.keys())
def test_help_and_usage_errors_are_pinned(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    got_out, got_err = capsys.readouterr()
    assert exit_.value.code == code
    assert (bool(got_out), bool(got_err)) == (bool(out), bool(err))
    if sys.version_info[:2] == PINNED_ON:
        assert (got_out, got_err) == (out, err)


FILES = ("a.json", "b.json")
FLAGS = ("--bound", "--format", "--suite", "--timings", "--graded")
VALUES = ("0", "007", "-1", "xml", "json", "all") + SUITE_NAMES
ODD = ("--format=json", "--form", "-h", "--help", "--", "-")
TOKENS = FILES + FLAGS + VALUES + ODD
LOOSE = FILES + FLAGS + VALUES[:6] + ("homeo",) + ODD  # one suite stands for all


def _grid():
    """For each command: one token; at most two loose tokens after a file;
    an option with each value before or after a file; two options with
    values after a file.  Then argvs with no command."""
    for command in _COMMANDS:
        for token in TOKENS:
            yield [command, token]
        for pair in itertools.product(("",) + LOOSE, repeat=2):
            yield [command, "a.json", *filter(None, pair)]
        for flag, value in itertools.product(FLAGS, VALUES):
            yield [command, flag, value, "a.json"]
            yield [command, "a.json", flag, value]
        for f1, v1, f2, v2 in itertools.product(FLAGS, ("007", "json", "homeo"), repeat=2):
            yield [command, "a.json", f1, v1, f2, v2]
    yield []
    for token in TOKENS:
        yield [token]
        yield [token, "a.json"]


class _ArgparseExit(Exception):
    pass


def _exit(*args, **kwargs):
    raise _ArgparseExit


def test_strict_reader_agrees_with_argparse(monkeypatch):
    monkeypatch.setattr(argparse.ArgumentParser, "error", _exit)
    monkeypatch.setattr(argparse.ArgumentParser, "print_help", _exit)
    parser = _build_parser()
    accepted = 0
    for argv in _grid():
        try:
            expected = vars(parser.parse_args(argv))
        except _ArgparseExit:
            expected = None
        got = _read_argv(argv)
        assert got is None or vars(got) == expected, argv
        accepted += got is not None
    assert accepted >= 100  # the grid reaches the accepting path of the reader


def _benchmark_argvs():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [list(argv) for workload in run.PLANS for argv in run.cli_commands(workload)]


def _readme_argvs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    argvs = [shlex.split(line, comments=True)[1:]
             for line in text.splitlines() if line.startswith("z2spec ")]
    assert argvs
    return [argv[:argv.index(">")] if ">" in argv else argv for argv in argvs]


def test_plain_commands_build_no_parser(tmp_path, monkeypatch, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text('{"ring": {"kind": "gaussian", "n": 2}}', encoding="utf-8")
    argvs = {(argv[0], str(instance), *argv[2:]) for argv in _benchmark_argvs() + _readme_argvs()}

    def no_parser(*args, **kwargs):
        raise AssertionError("argparse parser built for a plain command")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    for argv in sorted(argvs):
        assert _read_argv(list(argv)) is not None, argv
        assert main(list(argv)) == 0, argv
