"""Turnstile readout simulator for donor spin gates.

Simulates a spin-polarized single-electron turnstile reading out the state of
a two-spin gate (a donor electron plus its nucleus): the measurement cycle and
the quantum instrument it induces on the gate, pulse-count shot statistics and
currents, detection-constant calibration, and tomographic reconstruction of
the gate state from pulse probabilities over many settings.
"""

__version__ = "0.1.0"

from . import algebra, cycle, experiment, model, tomography
from .algebra import (
    bloch_to_density,
    density_to_bloch,
    evolve_unitary,
    kron,
    partial_trace,
    spin_operators,
)
from .cycle import (
    CycleOutcome,
    MeasurementSetting,
    PulseSchedule,
    QuantumInstrument,
    detection_probability,
    induced_instrument,
    run_cycle,
    setting_instrument,
)
from .experiment import calibrate, estimate_current, propagate_cycles, run_sweep, sample_cycles
from .model import (
    HierarchyReport,
    SpinModelParams,
    TunnelParams,
    build_gate_hamiltonian,
    build_interaction_hamiltonian,
    build_total_hamiltonian,
    characteristic_times,
    effective_exchange,
    gamma_rate,
)
from .tomography import (
    SINGLE_SPIN,
    TWO_SPIN,
    build_design,
    identifiability_report,
    project_physical,
    reconstruct,
)
