import json
import os
import random
import subprocess
import sys

import pytest

import hyclif
from hyclif.multivector import AlgebraContext

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hyclif.__file__)))


def _probe(code: str):
    """Run code in a fresh interpreter; it prints one JSON value, returned here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def probe():
    return _probe


@pytest.fixture(scope="session")
def ctx1():
    return AlgebraContext(1)


@pytest.fixture(scope="session")
def ctx2():
    return AlgebraContext(2)


@pytest.fixture(scope="session")
def ctx3():
    return AlgebraContext(3)


@pytest.fixture
def rng():
    return random.Random(20240917)


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("tests.test_acceptance") or sys.modules.get("test_acceptance")
    if acceptance is None or not getattr(acceptance, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(acceptance.RESULTS):
        terminalreporter.write_line(line)
