import pytest

import driftbandits.harness as harness


@pytest.fixture
def pools(monkeypatch):
    """The sizes of the pools a command builds, on two CPUs.  The pools are
    kept alive, so only their shutdown stops their workers."""
    built = []

    class KeptPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            built.append((max_workers, self))

    monkeypatch.setattr(harness, "ProcessPoolExecutor", KeptPool)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    return built
