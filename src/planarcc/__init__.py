"""planarcc: MAP inference for planar binary MRFs.

Exact ground states of symmetric planar Ising models by reduction to
minimum-weight perfect matching, and certified lower/upper bounds for models
with unary terms via subgradient optimization of per-face unary splits.
"""

from .embedding import Faces, PlanarEmbedding, cycle, faces, grid
from .errors import (
    NoPerfectMatchingError,
    NotPlanarEmbeddingError,
    PlanarCCError,
    SizeMismatchError,
    TooLargeError,
    WeightRangeError,
)
from .ising import ExpandedDual, GroundState, build_expanded_dual, ground_state
from .matching import (
    Matching,
    WeightedMatchGraph,
    available_engines,
    has_compiled_kernel,
    min_weight_perfect_matching,
)
from .model import (
    BinaryMRF,
    SymmetricIsing,
    complement,
    energy,
    ising_energy,
    load_model,
    save_model,
    scale_to_integer,
)
from .oracle import OracleResult, brute_force_map, brute_force_map_ising, brute_force_mwpm
from .pcc import (
    BoundTrace,
    PCCGraph,
    SolveResult,
    VariationalParams,
    build_pcc,
    decode_upper,
    init_params,
    lower_bound,
    optimize,
    polyak_step,
    subgradient,
)

__version__ = "0.1.0"
