"""Tests for the simulated accelerator."""

import pytest

from repro.simulator.engine import Compute, SimEngine, Wait
from repro.simulator.gpu import SimGPU
from repro.simulator.hardware import PlatformSpec, CPUSpec, GPUSpec
from repro.simulator.workload import LatencyModel


def make_gpu(engine):
    plat = PlatformSpec(cpu=CPUSpec(), gpu=GPUSpec())
    return SimGPU(engine, LatencyModel(plat)), plat.gpu


class TestSimGPU:
    def test_single_batch_latency(self):
        engine = SimEngine()
        gpu, spec = make_gpu(engine)
        results = []

        def task():
            fut = gpu.submit(4, result="done")
            value = yield Wait(fut)
            results.append((value, engine.now))

        engine.spawn(task())
        engine.run()
        expected = spec.transfer_time(4) + spec.compute_time(4)
        assert results == [("done", pytest.approx(expected))]

    def test_kernels_serialise(self):
        """Two batches submitted together: second starts after the first's
        compute finishes (single compute engine)."""
        engine = SimEngine()
        gpu, spec = make_gpu(engine)
        done = []

        def task():
            f1 = gpu.submit(4)
            f2 = gpu.submit(4)
            yield Wait(f1)
            done.append(engine.now)
            yield Wait(f2)
            done.append(engine.now)

        engine.spawn(task())
        engine.run()
        t1 = spec.transfer_time(4) + spec.compute_time(4)
        assert done[0] == pytest.approx(t1)
        assert done[1] == pytest.approx(t1 + spec.compute_time(4))

    def test_transfer_overlaps_previous_compute(self):
        """A batch submitted mid-compute of another hides its transfer."""
        engine = SimEngine()
        gpu, spec = make_gpu(engine)
        done = []

        def task():
            f1 = gpu.submit(8)
            yield Compute(spec.transfer_time(8))  # wait out the transfer
            f2 = gpu.submit(8)  # transfer overlaps f1's compute
            yield Wait(f2)
            done.append(engine.now)

        engine.spawn(task())
        engine.run()
        serial = 2 * (spec.transfer_time(8) + spec.compute_time(8))
        assert done[0] < serial  # strictly better than no overlap

    def test_stats(self):
        engine = SimEngine()
        gpu, _ = make_gpu(engine)

        def task():
            yield Wait(gpu.submit(3))
            yield Wait(gpu.submit(5))

        engine.spawn(task())
        engine.run()
        assert gpu.batches == 2
        assert gpu.samples == 8
        assert gpu.busy_time > 0

    def test_invalid_batch(self):
        engine = SimEngine()
        gpu, _ = make_gpu(engine)
        with pytest.raises(ValueError):
            gpu.submit(0)
