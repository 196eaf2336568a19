"""The console cases of `console_cases.json`, each run once in process.

`python tests/console_cases.py` runs the same rows as `finsler`
processes and reruns the rows marked ``rerun``.
"""

import pytest

import console_cases
from finsler import cli, fixtures, lagrangian

CASES = console_cases.load()


@pytest.mark.parametrize("case_id", list(CASES))
def test_console_case(case_id):
    row = CASES[case_id]
    assert console_cases.problems(row, console_cases.run_in_process(row)) == []


def test_every_command_model_type_and_fixture_has_a_row():
    configs = [console_cases.config_of(row) for row in CASES.values()]
    spacetimes = [c["spacetime"] for c in configs]
    assert {row["command"] for row in CASES.values()} == set(cli.COMMANDS)
    assert {s["type"] for s in spacetimes} == set(lagrangian._TYPES)
    assert {s["params"]["builder"] for s in spacetimes
            if s["type"] == "plugin"
            and s["params"]["module"] == "finsler.fixtures"} == set(
                fixtures.BUILDERS)


def test_the_byte_manifest_is_the_same_on_a_second_pass():
    rows = list(CASES.values())[:3]
    first = console_cases.manifest(rows, streams=False)
    assert len(first) == 3
    assert console_cases.manifest(rows, streams=False) == first
