"""``scripts/cold_verify.py`` passes a report that meets every expectation
and fails one that misses any."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cold_verify.py"
_spec = importlib.util.spec_from_file_location("cold_verify", SCRIPT)
cold_verify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_verify)

GAUSSIAN4 = '{"kind": "gaussian", "n": 4}'


def test_a_report_that_meets_its_expectations_passes(capsys):
    assert cold_verify.main([GAUSSIAN4, "--expect", "ideals=5", "--expect", "graded_ideals=3",
                             "--suite", "norm", "--expect", "pass=4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pass, lattice_elapsed ")
    assert "counts: graded_ideals=3, graded_maximals=1, graded_primes=1, ideals=5, primes=1" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv, problem", [
    ([GAUSSIAN4, "--expect", "ideals=7"], "ideals is 5, expected 7"),
    ([GAUSSIAN4, "--suite", "norm", "--expect", "pass=3"], "pass is 4, expected 3"),
    ([GAUSSIAN4, "--max-rss-mib", "1"], "VmHWM is not under 1 MiB"),
    ([GAUSSIAN4, "--bound", "4"], "status is resource-limit"),
])
def test_a_report_that_misses_one_fails(argv, problem, capsys):
    assert cold_verify.main(argv) == 1
    assert f"FAIL: {problem}\n" in capsys.readouterr().out


def test_an_unknown_expectation_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        cold_verify.main([GAUSSIAN4, "--expect", "bogus=1"])
    assert stop.value.code == 2
    assert "'bogus=1' is not NAME=VALUE" in capsys.readouterr().err
