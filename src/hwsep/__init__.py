"""Entanglement detection via trace-norm criteria in the Heisenberg-Weyl observable basis."""

from .analysis import (
    ComparisonReport,
    OptimizeResult,
    ThresholdResult,
    compare,
    make_check,
    optimize_params,
    scan_threshold,
)
from .bloch import (
    BlochDecomposition,
    BlochVector,
    build_W,
    decompose_bipartite,
    decompose_single,
    purity_from_bloch,
    reconstruct_bipartite,
)
from .criteria import (
    CriterionVerdict,
    check_ppt,
    check_theorem1,
    check_theorem2,
    matricize,
    theorem2_bound,
)
from .errors import NumericalError, ValidationError
from .hw_basis import HWObservableBasis, basis, displacement, observable, verify_orthogonality
from .linalg import (
    DensityMatrix,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from .states import (
    SeparableEnsemble,
    StateFamily,
    ghz,
    horodecki_2x4,
    horodecki_mix_family,
    mix,
    product,
    random_density,
    random_pure,
    random_separable,
    xi_state,
)

__version__ = "0.1.0"

__all__ = [
    "BlochDecomposition",
    "BlochVector",
    "ComparisonReport",
    "CriterionVerdict",
    "DensityMatrix",
    "HWObservableBasis",
    "NumericalError",
    "OptimizeResult",
    "SeparableEnsemble",
    "StateFamily",
    "ThresholdResult",
    "ValidationError",
    "basis",
    "build_W",
    "check_ppt",
    "check_theorem1",
    "check_theorem2",
    "compare",
    "decompose_bipartite",
    "decompose_single",
    "displacement",
    "eig_hermitian",
    "ghz",
    "horodecki_2x4",
    "horodecki_mix_family",
    "make_check",
    "matricize",
    "mix",
    "observable",
    "optimize_params",
    "partial_trace",
    "partial_transpose",
    "product",
    "purity_from_bloch",
    "random_density",
    "random_pure",
    "random_separable",
    "reconstruct_bipartite",
    "scan_threshold",
    "theorem2_bound",
    "trace_norm",
    "verify_orthogonality",
    "xi_state",
]
