"""Set-up shared by every test."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _private_result_cache(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a temporary directory for the session,
    so no test reads or writes the user's result cache (``~/.cache/repro``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        yield
