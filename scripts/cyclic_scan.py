#!/usr/bin/env python3
"""Scan the cyclic-type operator identities on the graded-line example.

Builds levels of the twisted tensor family for S = K + Kx (strongly
C2-graded) with two coefficient choices: the stable anti-Yetter-
Drinfeld module KC2 (trivial action, group-like coaction) and its
regular-action variant, which fails the AYD law.  The identity
verdicts show cyclicity holding on the cotensor exactly in the stable
case, while faces, degeneracies and the rotation relation hold
unconditionally.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hopfgal import cocyclic, zoo


def scan(label, S, M, top):
    ok, witness = M.ayd
    stable = False
    if ok:
        stable, _ = cocyclic.stability_check(M)
    print(f"== {label}: ayd {ok} (witness {witness}), stable {stable}")
    for n in range(top + 1):
        rep = cocyclic.check_cyclic_identities(S, M, n)
        print(
            f"  level {n}: dim {rep.dim:3} cotensor {rep.cotensor_dim:3} | "
            f"simplicial {rep.simplicial_ok} rotation {rep.rotation_ok} "
            f"cyclicity {rep.cyclicity_ok} preserves-cotensor {rep.t_preserves_cotensor}"
        )
    print()


def main():
    top = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for p in (3, 2):
        S = zoo.graded_line_comodule_algebra(p)
        scan(
            f"F{p}: trivial action + group-like coaction",
            S,
            zoo.group_like_ayd(zoo.fpc2(p), action="trivial"),
            top,
        )
        scan(
            f"F{p}: regular action + group-like coaction",
            S,
            zoo.group_like_ayd(zoo.fpc2(p), action="regular"),
            top,
        )


if __name__ == "__main__":
    main()
