"""Modeling, analysis, and load optimization for one-to-many resonant
inductive power links.

The package is organized around pure functions over immutable value types:

* :mod:`mrc_wpt.circuit` - scenario types, mesh solve (closed form and a
  generic linear-algebra cross-check), currents and powers.
* :mod:`mrc_wpt.analysis` - monotonicity/peak structure of the power
  functions and grid sweeps.
* :mod:`mrc_wpt.centralized` - minimum-transmit-power load selection under
  per-load demands.
* :mod:`mrc_wpt.distributed` - round-robin one-bit-feedback load adjustment
  protocol, batch experiments, and trace replay verification.
* :mod:`mrc_wpt.scenario_io` - scenario JSON files and bundled demos.
* :mod:`mrc_wpt.cli` - the ``mrc-grid`` command.
"""

__version__ = "0.1.0"

from .analysis import peak_load, sum_peak_load, sweep
from .centralized import OptimizationResult, minimize_ptx
from .circuit import (
    LoadVector,
    PowerReport,
    ReceiverSpec,
    ScenarioError,
    SystemScenario,
    TransmitterSpec,
    admittance_first_column,
    build_impedance_matrix,
    det_impedance,
    solve_closed_form,
    solve_oracle,
)
from .distributed import (
    BatchSummary,
    Case,
    NoFeasibleTrialsError,
    ProtocolConfig,
    ProtocolTrace,
    TrialResult,
    batch_run,
    run_protocol,
    verify_trace,
)
from .scenario_io import load_scenario, save_scenario
from .verify import run_verification

__all__ = [
    "__version__",
    # circuit
    "ScenarioError",
    "TransmitterSpec",
    "ReceiverSpec",
    "SystemScenario",
    "LoadVector",
    "PowerReport",
    "build_impedance_matrix",
    "det_impedance",
    "solve_closed_form",
    "solve_oracle",
    "admittance_first_column",
    # analysis
    "peak_load",
    "sum_peak_load",
    "sweep",
    # centralized
    "OptimizationResult",
    "minimize_ptx",
    # distributed
    "Case",
    "ProtocolConfig",
    "ProtocolTrace",
    "TrialResult",
    "BatchSummary",
    "NoFeasibleTrialsError",
    "run_protocol",
    "batch_run",
    "verify_trace",
    # io / verification
    "load_scenario",
    "save_scenario",
    "run_verification",
]
