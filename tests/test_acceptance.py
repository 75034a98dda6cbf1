"""The published-results verification suite, one test per criterion.

Each test prints its PASS/FAIL line (visible with ``pytest -s`` and in the
``mt verify --suite paper`` scorecard) and asserts the criterion holds at
its stated tolerance; every tolerance here is exact. Each result must also
equal, field for field, its entry in ``tests/golden/verify-paper.out``, the
recorded ``mt verify --suite paper`` output.
"""

import json
from pathlib import Path

import pytest

from mtower.acceptance import CRITERIA, run_criterion

GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify-paper.out").read_text())


@pytest.mark.parametrize("number,name",
                         [(num, name) for num, name, _ in CRITERIA],
                         ids=[f"{num:02d}-{name.replace(' ', '-')}"
                              for num, name, _ in CRITERIA])
def test_criterion(number, name):
    result = run_criterion(number)
    mark = "PASS" if result.passed else "FAIL"
    print(f"{mark}  {result.number:2d}  {result.name}: {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    assert vars(result) == GOLDEN["criteria"][number - 1]
