"""Berry phases of the simple harmonic oscillator in classical-solution
representations, driven and undriven, with independent numerical oracles."""

from .driven import (DrivingForce, berry_phase_driven, commensurability,
                     fourier_decompose, particular_solution, psi_driven)
from .errors import (ConvergenceError, InvalidParameterError,
                     InvalidRepresentationError)
from .numerics import GridState, propagate_schrodinger
from .phase import berry_phase, berry_phase_oracle, berry_phase_oracles
from .representation import PhysicalConfig, Representation
from .wavefunction import QuantumState, grid_halfwidth, psi

__version__ = "0.1.0"
