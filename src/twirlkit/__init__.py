"""Randomized-measurement entanglement detection via unitary-invariant moments."""

from .criteria import (
    CriterionReport,
    criterion,
    werner_poly_2,
    werner_poly_3,
    werner_threshold_2,
    werner_threshold_3,
)
from .haar import DEFAULT_SEED, RngStream, sample_haar_batch
from .reconstruct import (
    ReconstructionError,
    XVector2,
    XVector3,
    exact_x2,
    exact_x3,
    forward_matrix,
    invert,
    measurable_x,
)
from .states import (
    BellDiagonalSpectrum,
    DensityMatrix,
    DimsProfile,
    StateError,
    bell_diagonal,
    make_state,
    maximally_mixed,
    max_entangled_projector,
    random_density,
    werner_state,
)
from .stateio import StateFileError, load_state, save_state
from .twirl import EstimatorConfig, Estimate, estimate_y
from .weingarten import (
    SingularDimensionError,
    diagram_contract,
    gram_matrix,
    s_matrix,
    w_matrix,
)

__version__ = "0.1.0"
