"""Two-path real-time semantic segmentation engine on a numpy substrate.

A shallow spatial path keeps detail while a deep context path with channel
attention and a pooled global tail supplies semantics; the paths meet in a
gated fusion block at one-eighth resolution. Everything needed to train,
evaluate, benchmark, and cost-account the model lives here: NCHW tensors
with a counter-based RNG, forward/backward layer kernels, one op table of
layer kinds behind a small DAG executor with momentum SGD and a poly
schedule, netpbm data plumbing with augmentation and synthetic scenes, and
static-vs-instrumented efficiency accounting.
"""

from .analysis import CostReport, count_model, verify_counts
from .backbone import BackboneConfig, receptive_field
from .benchmark import BenchReport, run_bench
from .config import (
    BenchConfig,
    EngineConfig,
    TrainConfig,
    config_hash,
    load_config,
    model_hash,
    parse_config,
    serialize_config,
)
from .data import (
    AugmentConfig,
    ConfusionMatrix,
    Sample,
    SegDataset,
    augment,
    miou,
    read_pgm,
    read_ppm,
    synth_shapes,
    write_pgm,
    write_ppm,
)
from .errors import (
    ArgumentError,
    ConfigError,
    ConsistencyError,
    DataError,
    EngineError,
    FormatError,
    GraphError,
    NumericAbort,
    ShapeError,
)
from .graph import (
    KINDS,
    LayerKind,
    LayerSpec,
    ParamStore,
    SgdConfig,
    forward_backward,
    load_checkpoint,
    poly_lr,
    restore_into,
    save_checkpoint,
    sgd_step,
)
from .network import (
    ForwardArtifacts,
    NetConfig,
    ablation_configs,
    build_network,
    network_forward,
    param_count,
    predict_full_res,
)
from .tensor import Rng, Tensor
from .train import evaluate, run_training

__version__ = "0.1.0"
