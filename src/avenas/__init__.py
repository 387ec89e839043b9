"""avenas: latency-constrained architecture search for view-decoupled avatar
encoders plus an adaptive latent-extrapolation runtime for continuous encoding.
"""

__version__ = "0.1.0"

from .tensor_core import Graph, Tensor, backward  # noqa: F401
from .supernet import (  # noqa: F401
    DiscreteEncoder, SampledArch, SearchSpace, SupernetSpec,
    paper_spec, toy_spec,
)
from .objective import (  # noqa: F401
    GazeState, LossWeights, SurrogateDecoder, SyntheticTask,
    composite_loss, generate_pool, generate_sequence,
)
from .search_engine import SearchConfig, SearchResult, run_search  # noqa: F401
from .cost_models import (  # noqa: F401
    LatencyTable, count_flops, load_latency_table, load_reference_arch,
    score_arch, synthetic_latency_table,
)
from .latex_runtime import LatexState, decide_and_step, simulate_stream  # noqa: F401
from .training import TrainConfig, evaluate_encoder, train_encoder  # noqa: F401
