"""Square-free Goppa codes over GF(p): construction, Patterson-style
decoding through weak Popov lattice reduction, and experiment tooling."""

__version__ = "0.1.0"

from .alternant import (
    alternant_syndrome,
    feasibility_probe,
    predicted_feasibility,
    random_restricted_alternant,
    recover_error_values,
    try_build_alternant_lattice,
)
from .decoder import assemble_locator, decode, find_roots_multiplicities, key_lattices
from .errors import ParamError, PgoppaError
from .experiments import TrialConfig, run_trials, success_prob_model, sweep_weights
from .fields import make_field
from .goppa import GoppaCode, build_code, sample_error
from .polyring import Poly, pth_power_decompose, pth_root_mod, random_irreducible
from .popov import pivot_index, weak_popov_reduce
