import os

import numpy as np
import pytest

from mrc_wpt.scenario_io import load_scenario


@pytest.fixture(scope="session")
def fig2():
    return load_scenario("paper-fig2")


@pytest.fixture(scope="session")
def fig3():
    return load_scenario("paper-fig3")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which a child process of this one is left, running
    or unreaped: no call into the package may leave one behind."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"child {pid} outlived the test (exit status "
                    f"{os.waitstatus_to_exitcode(status)})")
    pytest.fail("a child process, forked by this test or an earlier one, is still running")
