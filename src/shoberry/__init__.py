"""Berry phases of the simple harmonic oscillator in classical-solution
representations, driven and undriven, with independent numerical oracles."""

from .driven import (Commensurability, DrivenPhaseResult, DrivingForce,
                     ParticularSolution, action_phase, berry_phase_driven,
                     berry_phase_special_rep, commensurability,
                     drive_phase_closed, drive_phase_quadrature,
                     fourier_decompose, particular_solution, psi_driven,
                     velocity_squared_integral)
from .errors import (ConditioningError, ConfigError, ConvergenceError,
                     IncommensurateError, InvalidParameterError,
                     InvalidRepresentationError, NotCyclicError,
                     ResonanceError, UndefinedPhaseError)
from .numerics import (DEFAULT_QUADRATURE, GridState, QuadratureSpec,
                       integrate_1d, propagate_schrodinger, rationalize,
                       unwrap_phase)
from .phase import (PhaseResult, berry_phase, berry_phase_oracle,
                    berry_phase_oracles, canonical_angle, dynamical_phase_closed,
                    dynamical_phase_oracle, equivalence_class_C,
                    ge_child_integral, overall_phase_closed,
                    overall_phase_oracle, phase_result_for_half_periods)
from .representation import (COS_BETA_EPS, PhysicalConfig, Representation,
                             STATIONARY, ValidationReport, classical_pair,
                             omega_invariant, require_valid, rho, rho_ddot,
                             rho_dot, trajectory, validate, winding_phase)
from .wavefunction import (QuantumState, alpha, alpha_dot, energy_expectation,
                           energy_expectation_quadrature, grid_halfwidth,
                           hermite, norm_quadrature, overlap, psi, psi_dx)

__version__ = "0.1.0"
