import pytest
from hypothesis import HealthCheck, settings

from hankelrev import series

# Exact arithmetic on big integers makes individual examples slow but never
# flaky, so wall-clock deadlines only add noise.
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def radical_calls(monkeypatch):
    """(a, c, n) of each call of ``series._radical_revert``."""
    calls = []
    radical_revert = series._radical_revert

    def spy(a, c, n):
        calls.append((a, c, n))
        return radical_revert(a, c, n)

    monkeypatch.setattr(series, "_radical_revert", spy)
    return calls
