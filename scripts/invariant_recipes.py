#!/usr/bin/env python3
"""Enumerate every twelve-node recipe whose candidate class is fixed by the
switch involution, and compute both effectivity values for each.

For each invariant recipe it prints h0(1, four), the number of independent
hyperplanes through the four nodes outside the recipe, and h0(2, twelve), the
number of independent quadrics through its twelve nodes; the last line counts
the invariant recipes and those with both values 0. On the bundled surface
all 24 invariant recipes have h0(2, twelve) = 1, so each fails the doubled
check ``check_m_minus_h``, which counts sections of 2(M - H). That blocks the
check, not the class: h0 of the double does not decide whether M - H is
effective (see "The bundled configuration" in the README).
"""
import itertools

from ulrichcert.cohomology import h0_forms_through_points
from ulrichcert.fields import PrimeField
from ulrichcert.kummer import Genus2Curve, DEFAULT_ROOTS, all_node_points
from ulrichcert.labels import DEFAULT_PRIME, NODE_LABELS, node_token
from ulrichcert.picard import (BundleRecipe, build_theta_star, is_invariant)


def main():
    theta = build_theta_star()
    nodes = all_node_points(Genus2Curve(DEFAULT_ROOTS), PrimeField(DEFAULT_PRIME))
    invariant = 0
    certifiable = 0
    for twelve in itertools.combinations(NODE_LABELS, 12):
        candidate = BundleRecipe(labels=twelve).divisor()
        if not is_invariant(theta, candidate):
            continue
        invariant += 1
        four = [l for l in NODE_LABELS if l not in twelve]
        h0_hyperplane = h0_forms_through_points(1, [nodes[l] for l in four])
        h0_quadric = h0_forms_through_points(2, [nodes[l] for l in twelve])
        if h0_hyperplane == 0 and h0_quadric == 0:
            certifiable += 1
        print("four = {" + " ".join(node_token(l) for l in four) + "}"
              f"  h0(1, four) = {h0_hyperplane}  h0(2, twelve) = {h0_quadric}")
    print(f"{invariant} invariant recipes, {certifiable} with both vanishings")


if __name__ == "__main__":
    main()
