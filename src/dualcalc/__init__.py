"""dualcalc: exact computation of both sides of enumerative string-duality
identities, with the connecting checks.

Subsystems: the Gaussian-rational view type, the integer polynomial kernel
behind every Laurent type, dense and lambda-truncated series, and rational
functions of q with their Bernoulli numbers and lambda' expansions (plain
Laurent values), the last two each summed by one kernel (``scalars``,
``laurent``, ``dense``, ``series``, ``qfunc``), partition and
character data and skew Schur numerators (``partitions``, ``schur``),
quantum-dimension W values
(``chern_simons``), the partition-indexed series ring with cut-and-join
operators (``pseries``), Hurwitz and ELSV (``hurwitz``), the framed
triple-Hodge series (``hodge``), the local-P2 vertex with the one
Gopakumar-Vafa inversion, whose genus-0 case also inverts the quintic
(``vertex``), psi-intersections and Virasoro (``intersections``), mirror
hypergeometrics with one truncated product for the toric ring and the
Grassmannian determinant rows, whose Schur coefficients are read on plain
integers (``nilpotent``, ``mirror``), and the acceptance registry
(``verify``) behind the ``dualcalc`` CLI (``cli``).
"""

from .scalars import GaussianRational
from .series import LambdaSeries, TauLaurent
from .qfunc import QFunction, ULaurent, bernoulli
from .partitions import character, enumerate_partitions, parse_partition
from .chern_simons import w_one, w_pair
from .pseries import PSeries
from .hurwitz import (burnside_phi, double_hurwitz, elsv_I, hurwitz_number,
                      psi_from_asymptotics)
from .hodge import (FramedSeries, build_series, convolution_check,
                    elsv_limit_check, hodge_extract, initial_value_report,
                    lambda_g_check, pde_residual)
from .vertex import extract_gw, gv_invert, local_p2_z
from .intersections import dvv, dvv_normalized, tau_coefficient, virasoro_residual
from .mirror import candelas, hg_projective, hori_vafa_series, toric_b_series

__version__ = "0.1.0"
