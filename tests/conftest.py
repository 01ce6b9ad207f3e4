"""Shared fixtures and the acceptance-criteria summary hook."""

import numpy as np
import pytest

from gaugekit import build_chart

# registry filled by tests/test_acceptance.py; printed at the end of the run
CRITERIA = []


@pytest.fixture(scope="session")
def ann32():
    return build_chart("annulus", (32, 32))


@pytest.fixture(scope="session")
def ann64():
    return build_chart("annulus", (64, 64))


@pytest.fixture(scope="session")
def slab32():
    return build_chart("periodic_slab", (32, 32))


@pytest.fixture(scope="session")
def shell12():
    return build_chart("cylindrical_shell", (12, 12, 16))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def criteria():
    """Acceptance-criteria registry, printed at the end of the run."""
    return CRITERIA


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num, title, ok, detail in sorted(CRITERIA):
        tag = "PASS" if ok else "FAIL"
        tw.write_line(f"[{tag}] criterion {num:2d} ({title}): {detail}")
