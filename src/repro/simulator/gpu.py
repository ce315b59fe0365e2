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

The schemes batch their own requests before they submit: the local-tree
simulation submits each sub-batch its search program flushes, and the
shared-tree simulation collects one batch of N worker requests whose
single :class:`SimFuture` every worker in it waits on.  (The in-process
accelerator queue is :class:`repro.serving.evalbus.EvaluationBus`.)
"""

from __future__ import annotations

from typing import Any

from repro.simulator.engine import SimEngine
from repro.simulator.resources import SimFuture
from repro.simulator.workload import LatencyModel

__all__ = ["SimGPU"]


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
