import pytest
from hypothesis import settings

from fluxdg import GasParams

# property tests draw the same examples on every run, with no time limit
settings.register_profile("fluxdg", derandomize=True, deadline=None)
settings.load_profile("fluxdg")


@pytest.fixture(scope="session")
def gas():
    return GasParams(1.4)
