import pytest
from hypothesis import settings

from covertawgn import verify as vf

# Property tests draw the same examples on every run (no example database, no
# per-example deadline), so a tier-1 result is reproducible.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def verify_results():
    """The ten verify checks, run once per test session (check 7 alone takes ~20 s)."""
    return vf.run_all()
