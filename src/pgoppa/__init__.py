"""Square-free Goppa codes over GF(p): construction, Patterson-style
decoding through weak Popov lattice reduction, and experiment tooling."""

__version__ = "0.1.0"

from .alternant import feasibility_probe
from .decoder import decode
from .errors import ParamError, PgoppaError
from .experiments import TrialConfig, run_trials, success_prob_model
from .fields import make_field
from .goppa import GoppaCode, build_code, sample_error
from .polyring import Poly
