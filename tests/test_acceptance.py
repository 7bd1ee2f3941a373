"""Acceptance gate: every shipped criterion, one test each.

Each test prints a PASS/FAIL line with the measured numbers (run pytest
with -s or -rP to see them).  ``verify`` computes its corpus runs once
per process, so the convergence runs execute once.  The same checks back
``calabilab verify``.
"""

import pytest

from calabilab import verify


@pytest.mark.parametrize(
    "criterion", verify.CRITERIA,
    ids=[f"criterion_{i:02d}" for i in range(1, len(verify.CRITERIA) + 1)],
)
def test_criterion(criterion):
    result = criterion()
    tag = "PASS" if result.passed else "FAIL"
    print(f"{tag} criterion {result.number:2d} [{result.name}]: "
          f"{result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"
