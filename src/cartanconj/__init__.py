"""Sub-Riemannian geodesics on the Cartan group: exponential map, first
Maxwell time and first conjugate time, with the bound t_conj1 >= t_max1
verifiable at desk scale."""

from .elliptic import Modulus, complete_E, complete_K, incomplete_F
from .errors import NumericalError, SolverDisagreement, StratumError
from .flow import (Covector, EllipticCoord, Stratum, classify, dilate_covector,
                   exp_jacobian, exp_map, from_elliptic, pendulum_flow,
                   reflect3, rotate_covector, to_elliptic)
from .group import GroupPoint, dilate, frame_field, invariant_coords, rotate
from .maxwell import MaxwellResult, critical_moduli, f_V0, f_V_C1, f_V_C2, f_z_C1, f_z_C2, p1_V, p1_V0, p1_z, t_max1
from .conjugate import (ConjugateResult, JacobianFactors, a01_C1, a01_C2,
                        a21_C1, a21_C2, a010, a210, certificate_x1,
                        certificate_x2, first_conjugate_time, fz0, j1_factors,
                        j1_path, two_sided_check)

__version__ = "0.1.0"
