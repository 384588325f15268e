"""replicaq: exact-arithmetic q-series toolkit for replicable functions.

Laurent q-series over exact rationals, eta products and their degree-24
classification, Faber polynomials, Grunsky tables, Norton's replication
machinery and weight-0 Hecke operators, all cross-checked against each other.
"""

from .qseries import (QSeries, GridError, TruncationError, agree, eta, eisenstein_e4,
                      delta, j_oracle)
from .frames import (FrameShape, FrameShapeError, parse_frame_shape,
                     is_balanced, eta_product, weak_multiplicativity,
                     classify_degree24, euler_factor_check)
from .faber import (FaberPolynomial, faber_by_recursion, faber_by_elimination,
                    faber_by_determinant)
from .grunsky import (GrunskyTable, GrunskyCalculator, grunsky_by_recursion,
                      grunsky_from_faber, grunsky_bivariate_check,
                      denominator_bound_violations)
from .replicable import (NORTON_BASIS, IRREDUCIBLE_GRADES, ReplicationFamily,
                         ReducingPair, DescentError, is_replicable, replicate,
                         replicate_by_grunsky, find_reducing_pair,
                         exhaustive_reducing_pair, reconstruct_from_basis,
                         reconstruct_by_grunsky)
from .hecke import (up, vp, hecke_Tn, hecke_Tn_via_uv, twisted_Tn,
                    hecke_faber_verify, p2_identities, mahler_compute)
from .functions import (FunctionSpec, SpecError, parse_function_spec, realize,
                        fiction_series, j_family, fiction_family, tb2_family,
                        replication_family, HAUPTMODULN)

__version__ = "0.1.0"
