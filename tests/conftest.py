import pytest

from covertawgn import verify as vf


@pytest.fixture(scope="session")
def verify_results():
    """The ten verify checks, run once per test session (check 7 alone takes ~20 s)."""
    return vf.run_all()
