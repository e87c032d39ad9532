"""Protected state transfer through XX spin chains: free-fermion engine,
fidelity formulas, and an exact many-body verification oracle."""

from .model import (ChainSpec, CouplingMatrix, derive_parameters,
                    build_full_coupling_matrix, build_effective_coupling_matrix,
                    channel_spectrum, mode_couplings)
from .propagator import (SpectralDecomposition, Propagator, eigendecompose,
                         propagator_at, closed_form_effective_elements,
                         mirror_inversion_report)
from .fidelity import (RegisterElements, extract_register_elements,
                       register_elements, f_dfs, f_ndfs, SweepRow, SweepResult,
                       sweep_fidelity, default_ratio_grid)
from .oracle import (DephasingModel, jw_phase_prediction,
                     average_fidelity_bruteforce, dephasing_protection_report,
                     phase_table, REMAINING_SUBSPACES)

__version__ = "0.1.0"
