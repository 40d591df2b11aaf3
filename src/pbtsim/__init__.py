"""Channel simulation via N-port port-based teleportation.

Closed-form Choi matrices of the simulated qubit channel for
permutation-symmetric resource states, the protocol's own Kraus operators,
a dense brute-force oracle, and an amplitude-damping simulation study with
exact and numerical diamond-norm metrics.
"""

from .analysis import (AdKnownPoints, AlternateDerivatives, AlternateXYZ,
                       DifferenceSpectrum, ad_choi, ad_known_points,
                       alternate_choi, alternate_derivatives,
                       alternate_known_point, alternate_trace_min_a,
                       alternate_xyz, depolarizing_choi, diamond_bounds,
                       diamond_numeric, difference_spectrum, p0_cross,
                       pbt_ad_choi, symmetric_sum_curvature, trace_min_location,
                       trace_norm, xi)
from .choi import (MeasurementRows, QRCoeffs, assemble_choi, check_choi,
                   choi_from_reduced, g_sum, measurement_rows, qr_coeffs)
from .kraus import (KrausSet, ProtocolKraus, apply_kraus, apply_protocol,
                    choi_from_kraus, choi_to_kraus, protocol_gram,
                    protocol_kraus)
from .oracle import build_povm, oracle_choi, povm_element, sigma_op
from .resources import (AdChoi, Alternate, Bell, FromFile, FullResource,
                        ProductResource, ProductTable, ReducedResource,
                        ResourceFamily, SpinCoefficients,
                        full_from_port, load_resource, make_family,
                        port_state, reduce_full, reduced_from_port,
                        reduced_port_state, save_resource,
                        to_spin_coefficients)
from .spin import (SpinBasis, build_spin_basis, clebsch_gordan, degeneracy,
                   rho_eigenvalue)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
