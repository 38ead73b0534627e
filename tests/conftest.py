import pytest

from supersympoly import selfcheck


@pytest.fixture(scope="session")
def selftest_results():
    """The nine acceptance suites, run once per session: the criterion
    tests and the selftest command both read these results."""
    return selfcheck.run_all()
