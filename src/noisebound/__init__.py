"""Certified classical lower bounds on the minimum energy at the output of
noisy quantum circuits, via Lagrangian duality over Heisenberg-evolved dual
operators.

Layout:

- :mod:`noisebound.mpo` - matrix-product-operator toolkit (adjoint gate and
  channel application, exact-error compression).
- :mod:`noisebound.circuits` - benchmark circuit families and their target
  Hamiltonians.
- :mod:`noisebound.noise` - noise channels and the per-layer purity /
  information / distance schedules they certify.
- :mod:`noisebound.trace_dual` - Heisenberg TEBD duals and ``dual_value``,
  the one evaluator of MPO dual bounds (purity, distance and information
  penalties, chosen by the schedule's kind).
- :mod:`noisebound.info_dual` - entropy-based bounds (Gibbs free energies,
  the free-energy term, temperature-cutoff architecture-free bound).
- :mod:`noisebound.fermion` - Gaussian-fermion circuits, covariance
  simulation, and gradient-optimized locality-restricted duals.
- :mod:`noisebound.exact` - dense and stabilizer oracles for verification.
- :mod:`noisebound.report`, :mod:`noisebound.config`, :mod:`noisebound.sweep`,
  :mod:`noisebound.cli` - result records, experiment configs, grid
  execution, and the command-line front-end.
"""

from .circuits import (CircuitSpec, GateOp, Layer, brickwall_1d,
                       brickwall_2d_snake, circuit_rng,
                       clifford_entangle_unentangle, single_qubit_circuit)
from .exact import dense_simulate, min_energy_at_purity, purity_and_info
from .fermion import (FermionCircuit, FermionLayer, QuadraticOp,
                      energy_from_covariance, fermion_brickwall_1d,
                      fermion_brickwall_2d, fermionic_dual_value,
                      fermionic_free_energy, ground_state_covariance,
                      optimize_fermionic_dual, simulate_covariance,
                      ssh_hamiltonian_1d, ssh_hamiltonian_2d,
                      vacuum_covariance)
from .info_dual import (DEFAULT_TEMPERATURE_CUTOFF, TwoLevelModes,
                        gibbs_free_energy_dense, info_bound)
from .mpo import MPO, from_pauli_sum, identity_mpo, sum_local_mpo
from .noise import (BoundSchedule, NoiseModel, depolarizing, info_schedule,
                    max_replacement_fraction, purity_schedule,
                    relative_entropy_schedule, unital_pauli)
from .report import BoundReport, read_csv, write_csv
from .trace_dual import (DualValue, TebdDual, dual_value, heisenberg_tebd,
                         refine_dual, tebd_error_bound)

__version__ = "0.1.0"

__all__ = [
    "MPO", "from_pauli_sum", "identity_mpo", "sum_local_mpo",
    "CircuitSpec", "GateOp", "Layer", "circuit_rng", "single_qubit_circuit",
    "brickwall_1d", "brickwall_2d_snake", "clifford_entangle_unentangle",
    "NoiseModel", "BoundSchedule", "depolarizing", "unital_pauli",
    "purity_schedule", "info_schedule", "relative_entropy_schedule",
    "max_replacement_fraction",
    "TebdDual", "DualValue", "heisenberg_tebd", "dual_value",
    "tebd_error_bound", "refine_dual",
    "DEFAULT_TEMPERATURE_CUTOFF", "TwoLevelModes", "gibbs_free_energy_dense",
    "info_bound",
    "QuadraticOp", "FermionLayer", "FermionCircuit", "vacuum_covariance",
    "ground_state_covariance", "energy_from_covariance", "simulate_covariance",
    "ssh_hamiltonian_1d", "ssh_hamiltonian_2d", "fermion_brickwall_1d",
    "fermion_brickwall_2d", "fermionic_free_energy", "fermionic_dual_value",
    "optimize_fermionic_dual",
    "dense_simulate", "purity_and_info", "min_energy_at_purity",
    "BoundReport", "read_csv", "write_csv",
    "__version__",
]
