"""Byzantine-robust federated aggregation with FFT density selection.

The library provides the weight data model (`tensors`), an FFT/KDE numeric
core (`spectral`), baseline robust aggregators (`aggregators`), the
FFT-density aggregation rule (`fft_aggregator`), a KS-based contamination
detector with a dynamic FedAvg/FFT switch (`detector`), model-poisoning
attacks (`adversary`), and a deterministic desk-scale simulation harness
(`fedsim`). The ``fedfft`` command line (`cli`) runs experiments, sweeps,
offline aggregation of weight dumps, KS tests, and a self-test against the
reference implementations in `oracles`, which this package does not import.
"""

from .adversary import (
    ATTACK_MIN_MAX,
    ATTACK_NONE,
    ATTACK_RANDOM_WEIGHTS,
    INVERSE_SIGN,
    INVERSE_STD,
    INVERSE_UNIT_VECTOR,
    AttackSpec,
    MinMaxResult,
    apply_attack,
    min_max_craft,
    random_weights,
)
from .aggregators import (
    KrumParam,
    TrimParam,
    coordinate_median,
    fed_avg,
    krum,
    krum_select,
    trimmed_mean,
)
from .detector import (
    DetectorConfig,
    KsResult,
    dynamic_aggregate,
    ks_pvalue,
    ks_statistic,
    ks_test,
    mal_test,
)
from .fedsim import (
    AggregatorSpec,
    MlpModel,
    RoundRecord,
    SyntheticTask,
    TrainConfig,
    gen_task,
    local_update,
    local_updates,
    run_experiment,
)
from .fft_aggregator import FftStrategy, Selection, fft_aggregate, fft_select
from .spectral import DensityEstimate, fft, kde_density
from .tensors import (
    ClientUpdate,
    ModelWeights,
    load_weight_dump,
    save_weight_dump,
    validate_uniform,
)

__version__ = "0.1.0"
