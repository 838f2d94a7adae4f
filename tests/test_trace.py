"""The benchmark's tracer, perfbench/trace.py, still wraps the engine.

The tracer replaces engine functions by name, so renaming or deleting one
breaks `perfbench/run.py --trace 1` while untraced runs pass.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import biseg
from biseg.graph import GraphRun, ParamStore, forward_backward, init_params
from biseg.network import build_network, joint_loss_on_values, network_forward
from biseg.tensor import Rng, Tensor

from test_network import TINY

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _tracer():
    # Not named "trace", which would shadow the standard library module.
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_wraps_every_named_function():
    tracer = _tracer()
    try:
        tracer.install(biseg)
        wrapped = list(tracer._undo)
        assert len(wrapped) == 34
        for owner, attr, orig in wrapped:
            assert getattr(owner, attr).__wrapped__ is orig, attr
    finally:
        tracer.unwrap_all()
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, attr


def test_train_forward_kernels_match_specs():
    store = ParamStore()
    init_params(build_network(TINY).specs, store, Rng(0))
    x = Rng(1).normal(3 * 64 * 64).astype(np.float32).reshape(1, 3, 64, 64)
    tracer = _tracer()
    try:
        tracer.install(biseg)
        tracer.set_active(True)
        GraphRun(build_network(TINY).specs, store, "train").forward({"x": x})
        tracer.set_active(False)
    finally:
        tracer.unwrap_all()
    assert tracer.unattributed == 0
    layers = {name for name, direction in tracer.spec_s if direction == "fwd"}
    assert {"sp.l1.conv", "cp.stem1.conv", "head.cls"} <= layers


def test_inference_forward_traces_every_upsample():
    """Each upsample of the inference plan, the FFM join that adds one into
    the spatial half included, runs through the wrapped bilinear_upsample."""
    store = ParamStore()
    init_params(build_network(TINY).specs, store, Rng(0))
    x = Tensor(Rng(1).normal(3 * 64 * 64).astype(np.float32).reshape(1, 3, 64, 64))
    network_forward(x, store, TINY)  # builds the plan
    tracer = _tracer()
    try:
        tracer.install(biseg)
        tracer.set_active(True)
        network_forward(x, store, TINY)
        tracer.set_active(False)
    finally:
        tracer.unwrap_all()
    ups = [s for s in store.plans[TINY].specs if s.kind in ("upsample", "upsample_add")]
    assert len(ups) == 2 and tracer.calls["ops.upsample.fwd"] == len(ups)


@pytest.mark.parametrize("loss_mode", ["plain", "bootstrap"])
def test_training_step_counts_one_ce_call_per_loss_term(loss_mode):
    """One main and two aux terms: a CE entry point that reached the other
    through the module would be counted twice."""
    cfg = replace(TINY, loss_mode=loss_mode)
    net = build_network(cfg, train=True)
    store = ParamStore()
    init_params(net.specs, store, Rng(0))
    x = Rng(1).normal(3 * 64 * 64).astype(np.float32).reshape(1, 3, 64, 64)
    labels = (Rng(2).uniform(64 * 64) * 3).astype(np.uint8).reshape(1, 64, 64)

    def loss_fn(values):
        jl = joint_loss_on_values(values, net, labels, cfg)
        return jl.total, jl.seed_grads, {}

    tracer = _tracer()
    try:
        tracer.install(biseg)
        tracer.set_active(True)
        forward_backward(net.specs, store, {"x": x}, loss_fn, mode="train")
        tracer.set_active(False)
    finally:
        tracer.unwrap_all()
    assert len(net.aux_logits) == 2
    assert tracer.calls["ops.ce"] == 3
