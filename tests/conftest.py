"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games import ConnectFour, Gomoku, SyntheticTreeGame, TicTacToe
from repro.mcts.serial import FLUSH, WAIT
from repro.simulator.hardware import CPUSpec, GPUSpec, PlatformSpec


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tictactoe():
    return TicTacToe()


@pytest.fixture
def small_gomoku():
    """6x6 four-in-a-row: big enough for interesting trees, fast tests."""
    return Gomoku(size=6, n_in_row=4)


@pytest.fixture
def connect4():
    return ConnectFour()


@pytest.fixture
def synthetic_game():
    return SyntheticTreeGame(fanout=4, depth_limit=6, board_size=5, seed=7)


@pytest.fixture
def small_platform():
    """Low-core platform with a GPU, for fast simulator tests."""
    return PlatformSpec(
        cpu=CPUSpec(name="test-cpu", num_cores=8),
        gpu=GPUSpec(name="test-gpu"),
    )


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, tol: float = 1e-5):
    """Relative-error gradient comparison robust to scale."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"max relative gradient error {rel.max():.2e} >= {tol}"


def step_by_hand(program, evaluator):
    """Run *program*, evaluating each one-row flush at the next wait;
    returns the root and the flushed states' keys."""
    flushed = []
    reply = None
    try:
        while True:
            kind, payload = program.send(reply)
            reply = None
            if kind is FLUSH:
                ((_, leaf_game),) = batch = payload
                flushed.append(leaf_game.canonical_key())
            elif kind is WAIT:
                reply = batch, [evaluator.evaluate(leaf_game)]
    except StopIteration as stop:
        return stop.value, flushed
