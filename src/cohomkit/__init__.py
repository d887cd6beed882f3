"""cohomkit: exact group cohomology over Z and Z/m.

Cohomology groups, cup products and Bockstein operations on the normalized
bar resolution, with machine-verified F-isomorphism and thick-tensor-ideal
certificates. All arithmetic is exact.
"""

__version__ = "0.1.0"

from .groups import (FiniteGroup, builtin_group, cyclic, group_from_generators,
                     klein_four, quaternion_8, symmetric_3)
from .exact import SparseFactorization
from .cohomology import (CohomologyClass, CohomologyGroup, bockstein_delta,
                         coefficient_map, cohomology_group, cohomology_system,
                         p_primary_part)
from .cup import GradedRingSlice, cup_product, ring_slice
from .fiso import (f_iso_check, integral_psth_preimage, pth_power_preimage,
                   s_exponent, verify_derivation)
from .fibrewise import (FGModule, GModule, dualising_check,
                        fibre_projectivity_test, gproj_test,
                        koszul_selfdual_check, proj_dim_via_fibres)
from .strata import (JordanType, RingMapSlice, jordan_tensor_type,
                     kappa_certificate, thick_closure)
