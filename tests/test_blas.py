"""OpenBLAS thread count across ``os.fork`` (:mod:`repro.utils.blas`).

Nothing here is timed: the tests check which count the getter reports,
and that the fork hooks hand the pre-fork count to the setter, in the
parent and in a forked child.
"""

import json
import os

import pytest

import repro  # noqa: F401  (registers the fork hooks)
from repro.utils import blas

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork"),
    pytest.mark.skipif(blas.openblas_threads() is None, reason="no OpenBLAS in numpy.libs"),
]


def fork_and_report(report) -> object:
    """Fork; the child sends ``report()`` back as JSON and exits at once.
    Returns what the child sent."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            os.write(write_fd, json.dumps(report()).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        sent = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(sent)


@pytest.mark.parametrize("count", [None, 1], ids=["unchanged", "one"])
def test_child_and_parent_keep_the_pre_fork_count(count):
    default = blas.openblas_threads()
    try:
        if count is not None:
            blas.set_openblas_threads(count)
        before = blas.openblas_threads()
        assert fork_and_report(blas.openblas_threads) == before
        assert blas.openblas_threads() == before
    finally:
        blas.set_openblas_threads(default)


def test_hooks_reapply_the_count_in_child_and_parent(monkeypatch):
    before = blas.openblas_threads()
    applied: list[int] = []
    monkeypatch.setattr(blas, "set_openblas_threads", applied.append)
    assert fork_and_report(lambda: applied) == [before]
    assert applied == [before]


def test_set_then_get_round_trips():
    default = blas.openblas_threads()
    try:
        blas.set_openblas_threads(1)
        assert blas.openblas_threads() == 1
    finally:
        blas.set_openblas_threads(default)
    assert blas.openblas_threads() == default


def test_without_openblas_every_function_does_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    assert blas.openblas_threads() is None
    blas.set_openblas_threads(3)  # no library: nothing to set, no error
    blas._reapply_count()
