"""The benchmark's tracer, perfbench/trace.py, still wraps the engine.

The tracer replaces engine functions by name, so renaming or deleting one
breaks `perfbench/run.py --trace 1` while untraced runs pass.
"""

import importlib.util
from pathlib import Path

import numpy as np

import biseg
from biseg.graph import ParamStore, init_params
from biseg.network import build_network, network_forward
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
    x = Tensor(Rng(1).normal(3 * 64 * 64).astype(np.float32).reshape(1, 3, 64, 64))
    tracer = _tracer()
    try:
        tracer.install(biseg)
        tracer.set_active(True)
        network_forward(x, store, TINY, mode="train")
        tracer.set_active(False)
    finally:
        tracer.unwrap_all()
    assert tracer.unattributed == 0
    layers = {name for name, direction in tracer.spec_s if direction == "fwd"}
    assert {"sp.l1.conv", "cp.stem1.conv", "head.cls"} <= layers
