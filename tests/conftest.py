import pytest
from hypothesis import settings

from covertawgn import verify as vf

# Property tests draw the same examples on every run (no example database, no
# per-example deadline), so a tier-1 result is reproducible.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def verify_results():
    """The ten verify checks, run once per test session (about 1.7 s on 2 cores,
    1.0 s of it check 7)."""
    return vf.run_all()
