"""Static efficiency accounting: parameters, MACs, and FLOPs per layer.

Each kind's counting convention is the cost rule of its graph.KINDS entry.
count_model evaluates it on the spec's parameter shapes and
graph.infer_shapes; verify_counts evaluates the same rule on the arrays of a
forward that keeps every value and on the store's parameter arrays, so it
compares two independent sets of shapes. Only conv
rows carry MACs, so "flops == 2*macs" holds exactly there. A conv-only
total reproduces the stricter convention many tools use. Both MAC and FLOP
totals are always reported because published efficiency figures rarely say
which one they are.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import graph
from .graph import LayerSpec, ParamStore
from .tensor import Rng


@dataclass(frozen=True)
class CostRow:
    name: str
    kind: str
    output_shape: tuple[int, int, int, int]
    params: int
    macs: int
    flops: int


@dataclass
class CostReport:
    rows: list[CostRow]
    totals: tuple[int, int, int]       # (params, macs, flops)
    conv_totals: tuple[int, int, int]  # conv rows only
    input_shapes: dict[str, tuple[int, int, int, int]]
    note: str = ""

    def text_table(self) -> str:
        lines = []
        if self.note:
            lines.append(f"# {self.note}")
        for name, shape in sorted(self.input_shapes.items()):
            lines.append(f"# input {name}: {'x'.join(str(d) for d in shape)}")
        header = f"{'layer':<24}{'output':>18}{'params':>14}{'macs':>16}{'flops':>16}"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rows:
            shape = "x".join(str(d) for d in r.output_shape)
            lines.append(
                f"{r.name:<24}{shape:>18}{r.params:>14,}{r.macs:>16,}{r.flops:>16,}"
            )
        lines.append("-" * len(header))
        p, m, f = self.totals
        lines.append(f"{'total':<24}{'':>18}{p:>14,}{m:>16,}{f:>16,}")
        p, m, f = self.conv_totals
        lines.append(f"{'total (conv only)':<24}{'':>18}{p:>14,}{m:>16,}{f:>16,}")
        return "\n".join(lines)

    def to_json(self) -> str:
        obj = {
            "note": self.note,
            "inputs": {k: list(v) for k, v in self.input_shapes.items()},
            "rows": [asdict(r) for r in self.rows],
            "totals": dict(zip(("params", "macs", "flops"), self.totals)),
            "conv_totals": dict(zip(("params", "macs", "flops"), self.conv_totals)),
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cost_row(spec: LayerSpec, shapes: dict, param_shapes: dict) -> CostRow:
    """spec's row from value name -> shape and parameter suffix -> shape."""
    params, macs, flops = graph.KINDS[spec.kind].cost(
        [shapes[i] for i in spec.inputs], shapes[spec.output], param_shapes)
    return CostRow(
        name=spec.name, kind=spec.kind, output_shape=tuple(shapes[spec.output]),
        params=int(params), macs=int(macs), flops=int(flops),
    )


def count_model(specs, input_shapes: dict) -> CostReport:
    """Per-layer costs in topological order plus exact integer totals.

    The graph must pass infer_shapes, so an empty one raises GraphError.
    """
    specs = list(specs)
    shapes = graph.infer_shapes(specs, input_shapes)
    rows = [_cost_row(spec, shapes,
                      {d.suffix: d.shape for d in graph.KINDS[spec.kind].params(spec)})
            for spec in specs]
    totals = (
        sum(r.params for r in rows), sum(r.macs for r in rows),
        sum(r.flops for r in rows),
    )
    conv = [r for r in rows if r.kind == "conv"]
    conv_totals = (
        sum(r.params for r in conv), sum(r.macs for r in conv),
        sum(r.flops for r in conv),
    )
    return CostReport(
        rows=rows, totals=totals, conv_totals=conv_totals,
        input_shapes={k: tuple(v) for k, v in input_shapes.items()},
    )


@dataclass
class VerifyMismatch:
    name: str
    static: tuple[int, int]    # (macs, flops)
    measured: tuple[int, int]


@dataclass
class VerifyReport:
    mismatches: list[VerifyMismatch]
    trials: int

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return f"static and instrumented counts agree over {self.trials} trial(s)"
        lines = [f"{len(self.mismatches)} row(s) disagree:"]
        for m in self.mismatches:
            lines.append(
                f"  {m.name}: static macs={m.static[0]} flops={m.static[1]}"
                f" vs measured macs={m.measured[0]} flops={m.measured[1]}"
            )
        return "\n".join(lines)


def verify_counts(specs, input_shapes: dict, trials: int = 1, seed: int = 0) -> VerifyReport:
    """Compare the static cost table against the arrays of a real forward.

    Runs the graph on random inputs, keeping every value, evaluates each
    spec's cost rule on the shapes of its input, output and parameter
    arrays, and demands exact per-row agreement on MACs and FLOPs. Use
    small shapes; this actually executes the model.
    """
    static = {r.name: (r.macs, r.flops) for r in count_model(specs, input_shapes).rows}
    mismatches: dict[str, VerifyMismatch] = {}
    rng = Rng(seed)
    for t in range(trials):
        store = ParamStore()
        graph.init_params(specs, store, rng.split(t))
        inputs = {
            name: rng.split(1000 + t).normal(int(np.prod(shape)))
            .reshape(shape).astype(np.float32)
            for name, shape in input_shapes.items()
        }
        run = graph.GraphRun(specs, store)
        shapes = {name: value.shape for name, value in run.forward(inputs).items()}
        for spec in specs:
            row = _cost_row(spec, shapes, {k: v.shape for k, v in run.params[spec.name].items()})
            got = (row.macs, row.flops)
            if got != static[spec.name] and spec.name not in mismatches:
                mismatches[spec.name] = VerifyMismatch(spec.name, static[spec.name], got)
    return VerifyReport(mismatches=list(mismatches.values()), trials=trials)
