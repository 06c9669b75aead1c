"""Turnstile readout simulator for donor spin gates.

Simulates a spin-polarized single-electron turnstile reading out the state of
a two-spin gate (a donor electron plus its nucleus): the measurement cycle and
the quantum instrument it induces on the gate, pulse-count shot statistics and
currents, detection-constant calibration, and tomographic reconstruction of
the gate state from pulse probabilities over many settings.
"""

__version__ = "0.1.0"

from . import algebra, cycle, experiment, model, tomography
from .algebra import evolve_unitary, kron
from .cycle import (
    CycleOutcome,
    MeasurementSetting,
    run_cycle,
    setting_instrument,
)
from .experiment import calibrate, estimate_current, propagate_cycles, run_sweep, sample_cycles
from .model import (
    HierarchyReport,
    SpinModelParams,
    TunnelParams,
    build_total_hamiltonian,
    characteristic_times,
    gamma_rate,
)
from .tomography import (
    SINGLE_SPIN,
    TWO_SPIN,
    build_design,
    project_physical,
    reconstruct,
)
