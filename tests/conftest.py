import threading

import pytest

from hopfsim import bzgrid


@pytest.fixture
def lane_starts(monkeypatch):
    """The names of the threads that bzgrid._map_lanes starts, in order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(bzgrid.threading, "Thread", Counted)
    return started
