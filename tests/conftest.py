import signal

import pytest

TEST_TIME_LIMIT = 120  # seconds of wall time per test; the slowest takes about 5


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs longer than TEST_TIME_LIMIT.  It is not
    an Exception, so neither the code under test nor hypothesis catches
    it (hypothesis would replay the example without a limit); pytest
    reports it as the test's failure."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT, such as a search
    that never terminates, instead of hanging the run."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def cs_cache():
    """One shared memo table for the sphere/ball recursion per test run."""
    return {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # the acceptance module records one line per criterion; echo them after
    # the run so the verdicts are visible without digging through -v output
    try:
        from test_acceptance import CRITERIA_RESULTS
    except ImportError:
        return
    if not CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERIA_RESULTS:
        terminalreporter.write_line(line)
