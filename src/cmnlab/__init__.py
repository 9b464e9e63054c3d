"""Multipartite entanglement detection and global quantum discord via
correlation minor norms of matricized correlation tensors."""

from .basis import basis_expectations, normalized_generalized_gell_mann
from .bounds import (
    BoundReport,
    DetectConfig,
    DetectionVerdict,
    bisep_bound_inf,
    bisep_bound_p1,
    detect,
    dvh_bisep_bound_3qubit,
    dvh_fullsep_bound,
    fullsep_bound_inf,
    fullsep_bound_p1,
)
from .cmn import CmnParams, cmn, elementary_symmetric
from .discord import (
    DiscordResult,
    MeasurementFamily,
    OptimizerCfg,
    bipartite_discord_cmn,
    global_discord_cmn,
    measure_state,
    measurement_from_angles,
)
from .linalg import (
    BlochVector,
    DensityMatrix,
    PureState,
    ValidationError,
    bloch_to_qubit,
    partial_trace,
    singular_values,
)
from .normal_form import FilteringError, filter_to_fnf
from .zoo import ZOO, bell, from_name, ghz, maximally_mixed, rho1, w_state
from .tensor import (
    Bipartition,
    CorrelationTensor,
    build,
    iter_bipartitions,
    matricize,
    matricize_interior,
)

__version__ = "0.1.0"
