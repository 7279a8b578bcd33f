"""Windowed spectral criteria for Sturm-Liouville operators whose potentials
are distributional derivatives of locally square-integrable antiderivatives.

The package models the antiderivative s exactly on a finite window, evaluates
the resolvent-compactness and sectoriality criteria as window functionals,
discretizes the localized quadratic forms with finite elements, integrates the
regularized first-order system, and builds the semi-bounded counterexample
potentials.
"""

from .errors import (DomainError, GenerationError, NumericError, SlcritError,
                     UnsupportedInputError, ValidationError)
from .potential import (Antiderivative, Interval, PiecewiseLinear, PolyTerm,
                        RecipTerm, add, build_counterexample, delta_sum,
                        from_poly, load, miura, moments, offset, restrict,
                        save, scale, subtract, vh_profile, zero)
from .sectors import Sector
from .criteria import (ClassifyConfig, Verdict, WindowSeries, brasche_check,
                       brinck, classify, dbl_bruteforce, decompose_unif,
                       ismagilov_measure, scan_necessary, sector_fit,
                       window_deviation)
from .forms import (PiecewisePoly, RangeEstimate, WindowForm, assemble,
                    form_value, herm_lambda_min, inf_modulus,
                    localization_scan, partition_identity_check,
                    range_boundary)
from .regsolve import (State, Trajectory, cauchy_apply, fundamental_pair,
                       growth_bound_check, propagate, wronskian_defect)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
