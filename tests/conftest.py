"""A time bound on the whole test session.

A test that never returns (a loop whose exit condition never holds) would
otherwise keep the suite running forever. ``faulthandler`` dumps every
thread's traceback and exits the process with status 1 once
``SESSION_LIMIT_S`` seconds have passed since the session began; the suite
takes about 25 s on a 2-core host. The bound is armed again, for the time
left, before each test, because pytest's own faulthandler plugin cancels a
pending dump whenever a test fails. Tracebacks go to a duplicate of the
standard error the session began with, which output capturing does not
redirect.
"""

import faulthandler
import os
import sys
import time

import pytest

SESSION_LIMIT_S = 600
_BOUND = pytest.StashKey()  # (deadline on the monotonic clock, traceback file)


def _arm(config):
    deadline, file = config.stash[_BOUND]
    faulthandler.dump_traceback_later(max(deadline - time.monotonic(), 1e-3), exit=True,
                                      file=file)


def pytest_sessionstart(session):
    file = os.fdopen(os.dup(sys.__stderr__.fileno()), "w")
    session.config.stash[_BOUND] = (time.monotonic() + SESSION_LIMIT_S, file)
    _arm(session.config)


def pytest_runtest_setup(item):
    _arm(item.config)


def pytest_sessionfinish(session):
    faulthandler.cancel_dump_traceback_later()
    session.config.stash[_BOUND][1].close()
