"""ulrichcert: exact certification of Ulrich line bundles on a sixteen-nodes
quartic K3 cover of a degree-four polarized quotient surface.

Everything is computed over exact scalar domains (prime fields and the
rationals); re-running any pipeline yields bit-identical results.
"""

from .cohomology import (TOOL_VERSION as __version__, certify_ulrich, descend_to_enriques,
                         h0_forms_through_points)
from .fields import QQ, PrimeField
from .kummer import Genus2Curve, load_corpus_quartic, node_point, verify_sixteen_nodes
from .picard import (BundleRecipe, DivisorClass, build_theta_star, chi_k3,
                     even_eight_test, hyperplane_class, node_class, numerical_ulrich,
                     pairing, polarization, trope)

__all__ = [
    "BundleRecipe", "DivisorClass", "Genus2Curve", "PrimeField", "QQ",
    "build_theta_star", "certify_ulrich", "chi_k3", "descend_to_enriques",
    "even_eight_test", "h0_forms_through_points", "hyperplane_class",
    "load_corpus_quartic", "node_class", "node_point", "numerical_ulrich",
    "pairing", "polarization", "trope", "verify_sixteen_nodes",
]
