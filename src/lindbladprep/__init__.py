"""Single-ancilla dissipative ground-state preparation: simulator and checks."""

from .channel import (
    ChannelConfig,
    CostLedger,
    SimulationRecord,
    build_kraus_pair,
    build_w,
    run_simulation,
)
from .filters import FilterParams, default_params, f_hat, f_time, quadrature_grid
from .jump import DilatedJump, JumpOperator, dilate, exact_jump, ground_residual, quadrature_jump
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    evolution_unitary,
    hermitian_eig,
    partial_trace_ancilla,
    trace_norm,
)
from .models import ModelSpec, build_hubbard_1d, build_tfim, coupling_operator
from .reference import (
    LindbladSystem,
    discrete_map_exact,
    evolve_ode,
    exact_dilated_step,
    exact_dissipative_step,
    lindbladian_apply,
)

__version__ = "0.1.0"
