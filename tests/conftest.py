"""Fixtures every test module shares."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_seed_from_environment():
    """Tier-1 sets its own environment: no NCSPAN_SEED from the shell that
    runs it.  Session scope, so module-scoped fixtures run without it too;
    a test may still set it with monkeypatch."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.delenv("NCSPAN_SEED", raising=False)
        yield
