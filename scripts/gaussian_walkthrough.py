#!/usr/bin/env python3
"""Walk through the classical quadratic examples over Z.

Z[i] with complex conjugation is wildly ramified at 2: the group ring
ZC2 leaves the quotient Z/2, while the associated order Z<1, (1+s)/2>
is a Hopf order that makes the extension tame with free generator
1 + i.  Z[zeta3] is tame already over the group ring.  The field-level
classification of the same data is printed as a cross-check.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hopfgal import lattices, zoo


def describe(label, order, module, candidates):
    h = order.hopf
    print(f"== {label}")
    print("  order basis:", [h.format_element(g) for g in order.lattice.generators()])
    flags = order.hopf_order
    print("  hopf order:", flags.is_hopf_order)
    if not flags.is_hopf_order:
        print("  failing flag:", flags.witness)
        return
    generator, _ = lattices.lattice_integrals(order)
    print("  integral generator:", h.format_element(generator))
    report = lattices.tame_check_integral(order, module)
    print("  fixed lattice = Z.1:", report.fixed_is_base)
    print("  invariant factors of S^A/J.S:", list(report.invariant_factors))
    print("  obstructed primes:", list(report.obstructed_primes))
    print("  tame:", report.tame)
    print("  rational (field) classification tame:", report.rational_tame)
    if report.tame:
        free = lattices.free_rank_one_generator(order, module, report, candidates)
        if free.generator is None:
            print("  free generator: none among candidates (inconclusive)")
        else:
            print(
                "  free generator:",
                free.generator,
                f"(certificate determinant {free.determinant})",
            )
    print()


def main():
    zi = zoo.gaussian_integers_lattice()
    zz = zoo.eisenstein_integers_lattice()
    qc2 = zoo.qc2()
    group_ring = lattices.group_ring_order(qc2)

    describe("Z[i] over the group ring ZC2", group_ring, zi, [(1, 1)])
    describe(
        "Z[i] over its associated order",
        lattices.associated_order(qc2, zi),
        zi,
        [(1, 0), (0, 1), (1, 1)],
    )
    describe("Z[zeta3] over the group ring ZC2", group_ring, zz, [(0, 1)])
    assoc = lattices.associated_order(qc2, zz)
    print(
        "associated order of Z[zeta3] equals ZC2:",
        assoc.lattice == group_ring.lattice,
    )


if __name__ == "__main__":
    main()
