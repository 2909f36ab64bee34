"""The CLI's help and usage errors, pinned byte for byte: stdout, stderr
and the exit code of ``z2spec --help``, of each subcommand's ``--help``, of
a missing subcommand and of ``verify --bound 0``.  A change to how the
parser is built must keep them.

argparse lays the text out itself, and its layout differs between Python
minor versions, so the bytes are compared on the minor they were recorded
with (``PINNED_ON``); the exit codes and the stream each text goes to are
compared on every version.  ``COLUMNS`` fixes the wrapping width.
"""

import sys

import pytest

from z2spec.cli import main

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
