"""Named small instances used by the test suite, the CLI fixtures and
the survey scripts.

Everything here is desk scale: group algebras up to order 8, the
quadratic number-ring lattices, the Frobenius and divided-power
extensions, and the graded-line comodule algebras.
"""

from __future__ import annotations

from . import actions, cocyclic, hopf, lattices
from .linalg import GF, QQ, ColumnMap


# group tables (identity at index 0) ----------------------------------------


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for a2 in range(n2)
    ]


def dihedral_table(n):
    """D_n of order 2n: elements r^i s^e, index e * n + i."""

    def mul(x, y):
        ex, ix = divmod(x, n)
        ey, iy = divmod(y, n)
        # s r^j = r^{-j} s
        i = (ix - iy) % n if ex else (ix + iy) % n
        return ((ex + ey) % 2) * n + i

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def quaternion_table():
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", x): x for x in names
    }
    for x in names:
        base[(x, "1")] = x

    def negate(x):
        return x[1:] if x.startswith("-") else "-" + x

    rules = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        ("-1", "-1"): "1",
    }

    def mul(a, b):
        if (a, b) in base:
            return base[(a, b)]
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = rules[(a, b)]
        return negate(out) if sign < 0 else out

    return [[names.index(mul(a, b)) for b in names] for a in names]


GROUP_TABLES = {
    "C1": cyclic_table(1),
    "C2": cyclic_table(2),
    "C3": cyclic_table(3),
    "C4": cyclic_table(4),
    "C2xC2": product_table(cyclic_table(2), cyclic_table(2)),
    "C5": cyclic_table(5),
    "C6": cyclic_table(6),
    "S3": dihedral_table(3),
    "C7": cyclic_table(7),
    "C8": cyclic_table(8),
    "C2xC4": product_table(cyclic_table(2), cyclic_table(4)),
    "C2xC2xC2": product_table(cyclic_table(2), product_table(cyclic_table(2), cyclic_table(2))),
    "D4": dihedral_table(4),
    "Q8": quaternion_table(),
}


def qc2():
    return hopf.group_algebra(QQ, cyclic_table(2), labels=("1", "s"))


def fpc2(p):
    return hopf.group_algebra(GF(p), cyclic_table(2), labels=("1", "s"))


# module-algebra extensions --------------------------------------------------


def gaussian_extension():
    """S = Q[x]/(x^2+1) with C2 acting by x -> -x."""
    h = qc2()
    alg = hopf.algebra_from_triples(
        QQ, 2, ("1", "x"),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1)],
        (1, 0),
    )
    return actions.module_algebra(
        h, alg, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, -1)]
    )


def gaussian_trivial_extension():
    """Same S as the Gaussian case but with the trivial C2-action."""
    h = qc2()
    alg = hopf.algebra_from_triples(
        QQ, 2, ("1", "x"),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1)],
        (1, 0),
    )
    return actions.module_algebra(
        h, alg, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 1)]
    )


def f4_frobenius_extension():
    """S = F4 over F2 with the Frobenius y -> y^2 = 1 + y."""
    h = fpc2(2)
    alg = hopf.algebra_from_triples(
        GF(2), 2, ("1", "y"),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)],
        (1, 0),
    )
    return actions.module_algebra(
        h, alg, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1)]
    )


def divided_power_hopf(p=2):
    """H = F_p[d]/(d^p) with d primitive, for p = 2."""
    if p != 2:
        raise NotImplementedError("only the p = 2 divided-power algebra is built in")
    dom = GF(2)
    alg = hopf.algebra_from_triples(
        dom, 2, ("1", "d"), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], (1, 0)
    )
    comult = hopf.sparse_tensor(
        dom, (2, 2, 2), [(0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1)], 1
    )
    return hopf.build_hopf(alg, comult, (1, 0), ColumnMap.identity(dom, 2))


def truncated_polynomial_extension():
    """S = F2[t]/(t^2) with the primitive d acting as d/dt."""
    h = divided_power_hopf(2)
    alg = hopf.algebra_from_triples(
        GF(2), 2, ("1", "t"), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], (1, 0)
    )
    return actions.module_algebra(
        h, alg, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 0, 1)]
    )


def dual_graded_truncated_extension():
    """S = F2[t]/(t^2) graded by C2, as a module algebra over dual(F2C2).

    Tame but not Hopf-Galois; the Hopf algebra is not local, so it sits
    outside the scope of the local-cocommutative equivalence.
    """
    h = hopf.dual(fpc2(2))
    alg = hopf.algebra_from_triples(
        GF(2), 2, ("1", "t"), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], (1, 0)
    )
    # delta_1 projects onto degree e = span{1}, delta_s onto span{t}
    return actions.module_algebra(
        h, alg, [(0, 0, 0, 1), (1, 1, 1, 1)]
    )


def graded_line_module_algebra(p, strongly_graded=True):
    """S = K + Kx as a module algebra over dual(KC2) via the grading."""
    dom = GF(p)
    h = hopf.dual(fpc2(p))
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    if strongly_graded:
        mult.append((1, 1, 0, 1))
    alg = hopf.algebra_from_triples(dom, 2, ("1", "x"), mult, (1, 0))
    return actions.module_algebra(h, alg, [(0, 0, 0, 1), (1, 1, 1, 1)])


def swap_extension(p):
    """S = K x K with C2 swapping the factors."""
    dom = GF(p)
    h = fpc2(p)
    alg = hopf.algebra_from_triples(
        dom, 2, ("u", "v"), [(0, 0, 0, 1), (1, 1, 1, 1)], (1, 1)
    )
    return actions.module_algebra(
        h, alg, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
    )


def sweedler_regular_action():
    """Sweedler's algebra acting on itself by left multiplication.

    A module (used for faithfulness and homology checks), not a module
    algebra, so the raw container is returned without the algebra laws.
    """
    h = hopf.sweedler(QQ)
    return actions.ModuleAlgebraData(h, h.algebra, h.algebra.mult)


def extension_registry():
    """Named module-algebra instances the acceptance suite sweeps."""
    return {
        "gaussian": gaussian_extension(),
        "gaussian-trivial": gaussian_trivial_extension(),
        "f4-frobenius": f4_frobenius_extension(),
        "truncated-polynomial": truncated_polynomial_extension(),
        "dual-graded-truncated": dual_graded_truncated_extension(),
        "graded-line-f3": graded_line_module_algebra(3),
        "graded-line-f2": graded_line_module_algebra(2),
        "swap-f2": swap_extension(2),
        "swap-f3": swap_extension(3),
    }


# comodule-algebra instances --------------------------------------------------


def graded_line_comodule_algebra(p, strongly_graded=True):
    """S = K + Kx graded by C2, the coaction being the grading."""
    dom = GF(p)
    h = fpc2(p)
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    if strongly_graded:
        mult.append((1, 1, 0, 1))
    alg = hopf.algebra_from_triples(dom, 2, ("1", "x"), mult, (1, 0))
    return cocyclic.comodule_algebra(h, alg, [(0, 0, 0, 1), (1, 1, 1, 1)])


def graded_line_comodule_algebra_q(strongly_graded=True):
    h = qc2()
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    if strongly_graded:
        mult.append((1, 1, 0, 1))
    alg = hopf.algebra_from_triples(QQ, 2, ("1", "x"), mult, (1, 0))
    return cocyclic.comodule_algebra(h, alg, [(0, 0, 0, 1), (1, 1, 1, 1)])


def group_like_ayd(h, action="trivial"):
    """M = KG with the group-like coaction and a trivial or regular action."""
    n = h.dim
    comod = cocyclic.regular_comodule(h)
    if action == "trivial":
        act = hopf.sparse_tensor(
            h.domain, (n, n, n), [(a, m, m, h.counit[a]) for a in range(n) for m in range(n)], 2
        )
    elif action == "regular":
        act = h.algebra.mult
    else:
        raise ValueError(f"unknown action kind {action!r}")
    return cocyclic.AydModuleData(comod, act)


# lattice instances ------------------------------------------------------------


def gaussian_integers_lattice():
    """Z[i] inside Q(i) with complex conjugation."""
    alg = hopf.algebra_from_triples(
        QQ, 2, ("1", "i"),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1)],
        (1, 0),
    )
    return lattices.LatticeModuleData(
        hopf=qc2(),
        lattice=lattices.standard_lattice(2),
        action=(ColumnMap.identity(QQ, 2), ColumnMap.from_cols(QQ, 2, [(1, 0), (0, -1)])),
        unit=(1, 0),
        algebra=alg,
    )


def eisenstein_integers_lattice():
    """Z[zeta3] inside Q(zeta3) with complex conjugation."""
    alg = hopf.algebra_from_triples(
        QQ, 2, ("1", "z"),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1), (1, 1, 1, -1)],
        (1, 0),
    )
    return lattices.LatticeModuleData(
        hopf=qc2(),
        lattice=lattices.standard_lattice(2),
        action=(ColumnMap.identity(QQ, 2), ColumnMap.from_cols(QQ, 2, [(1, 0), (-1, -1)])),
        unit=(1, 0),
        algebra=alg,
    )
