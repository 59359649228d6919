"""The CLI contract as committed data: every case under tests/golden/ still holds.

Each case is one `subrad.cli.main(argv)` call; tests/golden/write.py says what
a case directory holds and writes them.  The exit code, stdout, stderr, the
names of the files written, CSV headers, JSON keys and every value that is
not a float must match exactly.  Floats must agree to 1e-12, absolute up to 1
and relative above: the last bits of a result depend on the BLAS kernel
(4.2e-16 at most between the kernels measured), so a byte comparison holds
only on one machine.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from golden.write import GOLDEN, RESULT_FILES, cases, run_case

FLOAT_TOL = 1e-12
NUMBER = re.compile(r"-?\d+(\.\d*)?([eE][-+]?\d+)?")  # a number as %.17g and str() write it
CASES = sorted(path.name for path in GOLDEN.iterdir() if (path / "argv.json").exists())


def files(root: Path) -> set:
    return {str(path.relative_to(root)) for path in root.rglob("*") if path.is_file()}


def assert_close(expected: float, actual: float, where: str):
    assert abs(actual - expected) <= FLOAT_TOL * max(1.0, abs(expected)), (where, expected, actual)


def assert_same_json(expected, actual, where: str):
    assert type(actual) is type(expected), (where, expected, actual)
    if isinstance(expected, dict):
        assert list(actual) == list(expected), where
        for key, value in expected.items():
            assert_same_json(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (want, got) in enumerate(zip(expected, actual)):
            assert_same_json(want, got, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert_close(expected, actual, where)
    else:
        assert actual == expected, (where, expected, actual)


def assert_same_csv(expected: str, actual: str, where: str):
    header, *rows = csv.reader(expected.splitlines())
    got_header, *got_rows = csv.reader(actual.splitlines())
    assert got_header == header, where
    assert len(got_rows) == len(rows), where
    for i, (row, got) in enumerate(zip(rows, got_rows)):
        assert len(got) == len(row), (where, i)
        for column, want, cell in zip(header, row, got):
            if NUMBER.fullmatch(want) and NUMBER.fullmatch(cell):
                assert_close(float(want), float(cell), f"{where}:{i}:{column}")
            else:
                assert cell == want, (f"{where}:{i}:{column}", want, cell)


@pytest.mark.parametrize("name", CASES)
def test_the_cli_call_gives_its_committed_results(tmp_path, name):
    case = GOLDEN / name
    cwd = tmp_path / name
    code, out, err = run_case(case, cwd)
    assert f"{code}\n" == (case / "exit_code").read_text()
    assert out == (case / "stdout").read_text()
    assert err == (case / "stderr").read_text()
    # the inputs run_case copied and the files the call wrote
    expected = files(case) - set(RESULT_FILES)
    assert files(cwd) == expected
    for relative in sorted(f for f in expected if f.startswith("out/")):
        want = (case / relative).read_text()
        got = (cwd / relative).read_text()
        if relative.endswith(".json"):
            assert_same_json(json.loads(want), json.loads(got), relative)
        elif relative.endswith(".csv"):
            assert_same_csv(want, got, relative)
        else:
            assert got == want, relative


def test_the_committed_cases_are_the_writers():
    assert CASES == sorted(cases())
