"""Simulated accelerator: PCIe transfers + serialised batched kernels.

Models the paper's Section 3.3 / 4.2 accelerator behaviour:

- every submission pays one PCIe transfer ``L + B / bandwidth`` (so a move
  that ships N requests in N/B sub-batches pays ``(N/B) * L + N/BW`` in
  total -- the paper's T_PCIe model);
- kernel executions are serialised on the device (one compute engine, as
  with same-priority CUDA streams), each costing ``T_GPU(B)``, monotone
  increasing in B;
- transfers overlap with compute of *earlier* batches (copy/compute
  overlap), which is exactly what makes sub-batching profitable for the
  local-tree scheme.

:class:`SimAcceleratorQueue` is the virtual-time model of the paper's
accelerator queue (the in-process one is
:class:`repro.serving.evalbus.EvaluationBus`): it accumulates requests to
a threshold and flushes them as one submission, resolving a per-request
:class:`SimFuture`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.simulator.engine import SimEngine
from repro.simulator.resources import SimFuture
from repro.simulator.workload import LatencyModel

__all__ = ["SimGPU", "SimAcceleratorQueue"]


class SimGPU:
    """Single-compute-engine accelerator with copy/compute overlap."""

    def __init__(self, engine: SimEngine, latency: LatencyModel) -> None:
        self.engine = engine
        self.latency = latency
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.batches = 0
        self.samples = 0

    def submit(self, batch: int, result: Any = None) -> SimFuture:
        """Submit *batch* inference requests; returns a future resolving to
        *result* when transfer + queued compute finish."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        now = self.engine.now
        arrive = now + self.latency.gpu_transfer(batch)
        start = max(arrive, self.busy_until)
        compute = self.latency.gpu_compute(batch)
        done = start + compute
        self.busy_until = done
        self.busy_time += compute
        self.batches += 1
        self.samples += batch
        future = SimFuture()
        self.engine.call_at(done, lambda: self.engine.resolve_future(future, result))
        return future

    def utilisation(self, elapsed: float) -> float:
        """Fraction of *elapsed* the compute engine spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class SimAcceleratorQueue:
    """Batch-accumulation queue in front of a :class:`SimGPU`.

    Used by the shared-tree + GPU configuration: each simulated worker
    submits its request and waits on the returned future; the queue
    flushes when ``batch_size`` requests accumulated (the paper sets this
    to N for the shared tree, Section 3.3).

    ``evaluate`` is the *real* evaluation callable -- results are computed
    eagerly at flush so the algorithm sees genuine priors/values, but
    delivery happens at the modelled completion time.
    """

    def __init__(
        self,
        gpu: SimGPU,
        batch_size: int,
        evaluate: Callable[[list[Any]], list[Any]],
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.gpu = gpu
        self.batch_size = batch_size
        self.evaluate = evaluate
        self._pending: list[tuple[Any, SimFuture]] = []
        self.flushes = 0

    def submit(self, request: Any) -> SimFuture:
        future = SimFuture()
        self._pending.append((request, future))
        if len(self._pending) >= self.batch_size:
            self.flush()
        return future

    def flush(self) -> int:
        """Force submission of whatever is pending; returns batch size."""
        if not self._pending:
            return 0
        batch = self._pending
        self._pending = []
        self.flushes += 1
        requests = [r for r, _ in batch]
        results = self.evaluate(requests)
        if len(results) != len(requests):
            raise RuntimeError("evaluator returned wrong number of results")
        engine = self.gpu.engine
        gpu_future = self.gpu.submit(len(batch))

        def deliver() -> None:
            for (_, fut), res in zip(batch, results):
                engine.resolve_future(fut, res)

        # resolve the per-request futures at the batch completion time
        assert gpu_future is not None
        engine.call_at(self.gpu.busy_until, deliver)
        return len(batch)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
