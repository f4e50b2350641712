"""Numerical information-transmission capacities of finite-dimensional
quantum channels: C_{1,1}, C_{1,inf} (Holevo), and entanglement-assisted
C_E, with supporting information measures and brute-force oracles."""

__version__ = "0.1.0"

from .core import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    HermitianMatrix,
    InvariantError,
    Povm,
    PureState,
    QuantumChannel,
    povm_probabilities,
    shannon_entropy,
    square_root_measurement,
    tensor,
    von_neumann_entropy,
)
from .info import (
    ClassicalChannel,
    JointDistribution,
    accessible_information_given,
    arimoto_blahut,
    coherent_information,
    holevo_chi,
    limited_ea_objective,
    mutual_information,
    quantum_mutual_information,
)
from .lp import LinearProgram, LpSolution, PricingOutcome, column_generation, solve_lp
from .c1inf import C1InfOptions, C1InfProblem, C1InfResult, c1inf
from .c11 import C11Options, C11Result, c11, optimize_measurement
from .ea import CEResult, QResult, c_ea, coherent_info_max, limited_ea
