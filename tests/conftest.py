import pytest

from dualcalc import cli


@pytest.fixture(autouse=True)
def _fresh_documents():
    """Start every test with no kept CLI document, so that no test prints a
    document that an earlier test computed, perhaps under a monkeypatch."""
    cli.respond.cache_clear()
