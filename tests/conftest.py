import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts in this process during
    the test; afterwards, every child must have been reaped."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
