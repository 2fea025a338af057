"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances exist in an exact setting); each
test prints one PASS line on success, so running

    pytest -v -s tests/test_acceptance.py

gives the one-line-per-criterion summary.
"""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hopfgal import actions, cocyclic, hopf, lattices, zoo
from hopfgal.linalg import GF, QQ, Matrix

import oracles

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")
PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


@functools.lru_cache(maxsize=1)
def registry():
    return zoo.extension_registry()


@functools.lru_cache(maxsize=1)
def lattice_cases():
    zi = zoo.gaussian_integers_lattice()
    zz = zoo.eisenstein_integers_lattice()
    group_ring = lattices.group_ring_order(zoo.qc2())
    return [
        ("ZC2 on Z[i]", group_ring, zi),
        ("ZC2 on Z[zeta3]", group_ring, zz),
        ("assoc on Z[i]", lattices.associated_order(zoo.qc2(), zi), zi),
        ("assoc on Z[zeta3]", lattices.associated_order(zoo.qc2(), zz), zz),
    ]


def test_criterion_1_larson_sweedler():
    instances = {
        "QC2": zoo.qc2(),
        "F2C2": zoo.fpc2(2),
        "dual(QC2)": hopf.dual(zoo.qc2()),
        "sweedler(Q)": hopf.sweedler(QQ),
        "sweedler(F5)": hopf.sweedler(GF(5)),
        "taft(3,2,F7)": hopf.taft(GF(7), 3, 2),
    }
    for name, h in instances.items():
        assert hopf.left_integrals(h).dim == 1, name
        assert hopf.right_integrals(h).dim == 1, name
    sw = instances["sweedler(Q)"]
    integral = hopf.left_integrals(sw).basis[0]
    assert integral == (0, 0, Fraction(1), Fraction(1))  # x + gx
    # substitution oracle: h . integral = counit(h) integral on every basis h
    for a in range(4):
        basis_a = tuple(Fraction(1) if i == a else Fraction(0) for i in range(4))
        lhs = sw.algebra.mul_vec(basis_a, integral)
        rhs = tuple(QQ.mul(sw.counit[a], v) for v in integral)
        assert tuple(lhs) == rhs
    report(1, "Larson-Sweedler integral dimensions")


def test_criterion_2_field_tameness_equivalence():
    for name in ("f4-frobenius", "truncated-polynomial"):
        d = registry()[name]
        rep = actions.classify_extension(d)
        hom = actions.hopfological_homology_module(d.hopf, d.action)
        assert rep.tame, name
        assert hom.dim_h0 == 0, name
        assert rep.j_bijective and rep.gamma_bijective, name
    # the three verdicts agree on every suite instance satisfying the
    # theorem hypotheses (H local cocommutative, ranks equal, faithful,
    # invariants equal to the base)
    checked = 0
    for name, d in registry().items():
        rep = actions.classify_extension(d)
        if not rep.equivalence_applies:
            continue
        checked += 1
        hom = actions.hopfological_homology_module(d.hopf, d.action)
        assert rep.tame == (hom.dim_h0 == 0) == rep.j_bijective, name
    assert checked >= 3  # f4, truncated, swap-f2 at least
    report(2, "field case: tame = homology zero = Hopf-Galois")


def test_criterion_3_integral_tameness():
    cases = dict((n, (o, m)) for n, o, m in lattice_cases())
    wild = lattices.tame_check_integral(*cases["ZC2 on Z[i]"])
    assert not wild.tame and wild.invariant_factors == (2,)
    tame = lattices.tame_check_integral(*cases["ZC2 on Z[zeta3]"])
    assert tame.tame and tame.invariant_factors == ()
    for name, order, module in lattice_cases():
        rep = lattices.tame_check_integral(order, module)
        assert rep.fixed_is_base and rep.rank_equal and rep.faithful, name
        trivial = not rep.invariant_factors and rep.quotient_free_rank == 0
        assert rep.tame == trivial, name
    report(3, "integral tameness via invariant factors")


def test_criterion_4_associated_order_pipeline():
    zi = zoo.gaussian_integers_lattice()
    order = lattices.associated_order(zoo.qc2(), zi)
    expected = lattices.IntegerLattice.from_generators(
        2, [(1, 0), (Fraction(1, 2), Fraction(1, 2))]
    )
    assert order.lattice == expected  # canonical Hermite representative
    assert lattices.is_hopf_order(order).is_hopf_order
    generator, _ = lattices.lattice_integrals(order)
    assert generator == (Fraction(1, 2), Fraction(1, 2))
    rep = lattices.tame_check_integral(order, zi)
    assert rep.tame
    result = lattices.free_rank_one_generator(order, zi, rep, [(1, 0), (0, 1), (1, 1)])
    assert result.generator == (Fraction(1), Fraction(1))  # 1 + i
    assert abs(result.determinant) == 1  # unimodular certificate
    report(4, "associated order pipeline for Z[i]")


def test_criterion_5_total_integral():
    for name, d in registry().items():
        rep = actions.classify_extension(d)
        result = actions.total_integral_map(d)
        assert result.present == rep.tame, name
        if result.present:
            g = result.matrix.to_dense()
            h = d.hopf
            dual_maps = actions.action_maps(h.domain, actions.dual_action(h), h.dim)
            maps = actions.action_maps(h.domain, d.action, d.algebra.dim)
            assert result.matrix.apply(tuple(h.counit)) == tuple(d.algebra.unit), name
            for a in range(h.dim):
                assert g @ dual_maps[a].to_dense() == maps[a].to_dense() @ g, name
    report(5, "total integral map present iff tame, exact H-linearity")


def test_criterion_6_cyclic_identities():
    cases = [
        (zoo.graded_line_comodule_algebra_q(), zoo.group_like_ayd(zoo.qc2())),
        (zoo.graded_line_comodule_algebra(3), zoo.group_like_ayd(zoo.fpc2(3))),
    ]
    for S, M in cases:
        assert cocyclic.ayd_check(M) == (True, None)
        assert cocyclic.stability_check(M) == (True, None)
        for n, rep in enumerate(cocyclic.cyclic_levels(S, M, 3)):
            assert rep.simplicial_ok, (S.domain.name, n)
            assert rep.rotation_ok, (S.domain.name, n)
            assert rep.cyclicity_ok, (S.domain.name, n)
            # the full pair loops and t^(n+1) composed, densely
            assert rep == oracles.dense_cyclic_identities(S, M, n), (S.domain.name, n)
    report(6, "face/degeneracy/rotation identities and cotensor cyclicity")


def test_criterion_7_bar_shift():
    d = registry()["gaussian"]
    sm = actions.smash(d)
    modules = {
        "S": actions.algebra_smash_module(sm),
        "S#H": actions.regular_smash_module(sm),
    }
    modules["S(+)S#H"] = actions.direct_sum_smash_modules(modules["S"], modules["S#H"])
    for name, module in modules.items():
        rep = cocyclic.bar_shift_check(d, module, 4)
        assert rep.dims_match, name
        assert all(rep.iso_bijective), name
        assert rep.dim_module == d.algebra.dim * rep.dim_fixed, name
    report(7, "bar shift B_n(S,M) = B_(n+1)(S,M^H) degreewise")


def test_criterion_8_fundamental_theorem_shift():
    for p in (3, 2):
        S = zoo.graded_line_comodule_algebra(p)
        assert cocyclic.galois_map_gamma_comodule(S).bijective
        for m in (
            cocyclic.algebra_as_relative_module(S),
            cocyclic.cofree_relative_module(S, 2),
        ):
            rep = cocyclic.t_shift_check(m, 3)
            assert rep.evaluation_bijective
            assert rep.dim_module == S.dim * rep.dim_coinvariants
        bad = zoo.graded_line_comodule_algebra(p, strongly_graded=False)
        gamma = cocyclic.galois_map_gamma_comodule(bad)
        assert not gamma.bijective and gamma.rank == 3
        with pytest.raises(Exception):
            cocyclic.t_shift_check(cocyclic.algebra_as_relative_module(bad), 2)
    report(8, "fundamental theorem shift for strongly graded lines")


def test_criterion_9_structural_soundness():
    # b.b = 0 on the bar complexes of the smash modules and on the T complex
    d = registry()["gaussian"]
    sm = actions.smash(d)
    complexes = []
    for module in (actions.algebra_smash_module(sm), actions.regular_smash_module(sm)):
        complexes.append([oracles.dense_bar_differential(d.algebra, n, module.dim, module.s_action())
                          for n in range(1, 5)])
    S, M = zoo.graded_line_comodule_algebra(3), zoo.group_like_ayd(zoo.fpc2(3))
    complexes.append([oracles.dense_face_differential(S, M, n) for n in range(1, 4)])
    for b in complexes:
        for lower, upper in zip(b, b[1:]):
            prod = lower @ upper
            assert prod == Matrix.zeros(prod.domain, prod.nrows, prod.ncols)

    # double dual identity on the builtins
    builtins = [
        zoo.qc2(),
        zoo.fpc2(2),
        hopf.sweedler(QQ),
        hopf.sweedler(GF(5)),
        hopf.taft(GF(7), 3, 2),
        hopf.dual(zoo.qc2()),
        zoo.divided_power_hopf(),
    ]
    for h in builtins:
        dd = hopf.dual(hopf.dual(h))
        assert dd.algebra.mult == h.algebra.mult
        assert dd.comult == h.comult
        assert dd.counit == h.counit
        assert dd.antipode == h.antipode

    # module/comodule dictionary round trips
    for name, d in registry().items():
        c = cocyclic.module_to_comodule(d.hopf, d.action)
        _, back = cocyclic.comodule_to_module(c)
        assert back == d.action, name

    # inclusion invariants, zero violations across the instance sweep
    for name, d in registry().items():
        hom = actions.hopfological_homology_module(d.hopf, d.action)
        assert all(oracles.echelon_in_span(d.domain, hom.fixed_basis, v) for v in hom.image_basis), name
    for name, order, module in lattice_cases():
        generator = lattices.tame_check_integral(order, module).integral_generator
        assert oracles.integral_image_in_fixed_lattice(module, generator), name
    report(9, "structural soundness: b.b = 0, double dual, round trips, inclusions")


CLI_COMMANDS = [
    ["verify", "hopf_sweedler.json"],
    ["verify", "hopf_qc2.json"],
    ["verify", "hopf_sweedler_bad_antipode.json"],
    ["integrals", "hopf_qc2.json"],
    ["integrals", "hopf_sweedler.json"],
    ["integrals", "hopf_f2c2.json"],
    ["tame", "ext_f4.json"],
    ["tame", "ext_trunc.json"],
    ["galois", "ext_gaussian.json"],
    ["galois", "ext_trivial.json"],
    ["homology", "mod_trivial_f2c2.json"],
    ["homology", "mod_regular_sweedler.json"],
    ["homology", "lat_zi_qc2.json"],
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json", "--levels", "2"],
    ["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json", "--levels", "3"],
    ["assoc-order", "lat_zi_qc2.json", "--candidates"],
    ["assoc-order", "lat_zzeta3_qc2.json", "--order", "group-ring", "--candidates"],
]


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "hopfgal.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_10_deterministic_reports():
    for command in CLI_COMMANDS:
        args = [
            a if not a.endswith(".json") else os.path.join(FIXDIR, a) for a in command
        ] + ["--json"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.stdout == second.stdout, command
        assert first.stdout.strip(), command
        json.loads(first.stdout)
    report(10, "byte-identical JSON reports across reruns")
