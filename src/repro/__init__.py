"""repro: Adaptive-parallel DNN-guided MCTS (SC 2023 reproduction).

Reproduction of "Accelerating Deep Neural Network guided MCTS using
Adaptive Parallelism" (Meng, Wang, Zu, Prasanna -- SC 2023).

Subpackages
-----------
- :mod:`repro.nn`        -- from-scratch NumPy DNN framework (the paper's
  5-conv + 3-FC policy/value network, AlphaZero loss, optimisers).
- :mod:`repro.games`     -- Gomoku (the paper's benchmark), TicTacToe,
  Connect-Four, and the synthetic profiling game.
- :mod:`repro.mcts`      -- MCTS core: Equation-1 UCT, virtual loss,
  serial search.
- :mod:`repro.parallel`  -- real-thread shared-tree (Algorithm 2) and
  local-tree (Algorithm 3) schemes plus leaf-/root-parallel baselines.
- :mod:`repro.simulator` -- discrete-event hardware simulator executing the
  search schemes in virtual time on a parameterised CPU/GPU platform.
- :mod:`repro.perfmodel` -- performance models (Equations 3-6), design-time
  profiling, Algorithm-4 batch-size search, adaptive scheme selection.
- :mod:`repro.training`  -- Algorithm-1 training pipeline (self-play data
  collection + SGD).
- :mod:`repro.serving`   -- cross-game batched self-play engine (many
  concurrent games multiplexed through one accelerator queue with an LRU
  evaluation cache in front) and the async match-serving gateway:
  deadline-budgeted game sessions with admission control and latency
  percentiles over a newline-JSON TCP wire layer.
"""

# keeps NumPy's OpenBLAS thread count across os.fork (repro.utils.blas)
from repro.utils import blas as _blas  # noqa: F401

__version__ = "1.0.0"

__all__ = ["__version__"]
