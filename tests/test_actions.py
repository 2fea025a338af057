import functools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfgal import actions, hopf, linalg, zoo
from hopfgal.errors import AxiomError, PreconditionError
from hopfgal.linalg import GF, QQ, ZZ

import oracles


@functools.lru_cache(maxsize=None)
def ext(name):
    return zoo.extension_registry()[name]


# verification ------------------------------------------------------------------


def test_gaussian_is_module_algebra():
    assert actions.verify_module_algebra(ext("gaussian")) is None


def test_derivation_action_is_module_algebra():
    # F2[d]/(d^2) acting on F2[t]/(t^2) as d/dt: the Leibniz rule on the basis
    assert actions.verify_module_algebra(ext("truncated-polynomial")) is None


def test_affine_shift_is_not_a_module_algebra():
    # sigma(x) = x + 1 has sigma^2(x) = x + 2, so the module law refuses first;
    # sigma(x) = 1 - x is an involution, and breaks multiplicativity:
    # (1 - x)^2 = -2x != sigma(x^2) = -1
    h = zoo.qc2()
    alg = ext("gaussian").algebra
    for shift, expected in ((1, ("module-law", (1, 1))), (-1, ("module-algebra-mult", (1, 1)))):
        action = hopf.sparse_tensor(QQ, (2, 2, 2), [
            (0, 0, 0, 1), (0, 1, 1, 1),  # identity acts trivially
            (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, shift),  # sigma(1) = 1, sigma(x) = 1 +- x
        ], 2)
        with pytest.raises(AxiomError) as err:
            actions.verify_module_algebra(actions.ModuleAlgebraData(h, alg, action))
        assert (err.value.check, err.value.witness) == expected


def harpoon_extension(h):
    """H as a dual(H)-module algebra by f -> x = x_1 f(x_2): e_a* -> e_x
    is the part of Delta(e_x) whose right leg is e_a."""
    triples = [(a, x, j, c) for x, g in enumerate(h.comult) for j, a, c in g]
    return actions.module_algebra(hopf.dual(h), h.algebra, triples)


def graded_group_algebra(p, n):
    """F_p C_n as a dual(F_p C_n)-module algebra by its grading:
    delta_g projects onto the line of g."""
    h = hopf.group_algebra(GF(p), zoo.cyclic_table(n))
    return actions.module_algebra(hopf.dual(h), h.algebra, [(g, g, g, 1) for g in range(n)])


def over_z(name):
    """A rational zoo extension with integral data, rebuilt over Z."""
    d = ext(name)
    h = hopf.group_algebra(ZZ, zoo.cyclic_table(2), labels=d.hopf.labels)
    alg = hopf.algebra_from_triples(
        ZZ, 2, d.algebra.labels, oracles.mult_triples(d.algebra), d.algebra.unit)
    return actions.module_algebra(h, alg, action_triples(d.action))


def action_triples(action):
    return [(a, m, t, c) for a, block in enumerate(action) for m, cell in enumerate(block)
            for t, c in cell]


MODULE_ALGEBRAS = {
    **{name: functools.partial(ext, name) for name in zoo.extension_registry()},
    **{f"{name}-z": functools.partial(over_z, name) for name in ("gaussian", "gaussian-trivial")},
    **{f"graded-f5c{n}": functools.partial(graded_group_algebra, 5, n) for n in (3, 4, 5)},
    "taft3-f7-harpoon": lambda: harpoon_extension(hopf.taft(GF(7), 3, 2)),
}


@functools.lru_cache(maxsize=None)
def module_algebra_case(name):
    return MODULE_ALGEBRAS[name]()


def test_module_algebra_cases_of_dimension_three_or_more_have_generators():
    for name in ("graded-f5c3", "graded-f5c4", "graded-f5c5", "taft3-f7-harpoon"):
        d = module_algebra_case(name)
        assert d.algebra.generators is not None, name
        assert oracles.module_algebra_witness(d) is None, name


@pytest.mark.parametrize("name", sorted(MODULE_ALGEBRAS))
@given(data=st.data())
def test_module_algebra_law_matches_the_full_loop(name, data):
    # one cell e_a . e_m of a module algebra replaced, over Q, F_p and Z
    d = module_algebra_case(name)
    dom, dh, ds = d.domain, d.hopf.dim, d.algebra.dim
    a, m = data.draw(st.integers(0, dh - 1)), data.draw(st.integers(0, ds - 1))
    t, c = data.draw(st.integers(0, ds - 1)), data.draw(st.integers(-2, 2))
    triples = [e for e in action_triples(d.action) if e[:2] != (a, m)] + [(a, m, t, c)]
    action = hopf.sparse_tensor(dom, (dh, ds, ds), triples, 2)
    bad = actions.ModuleAlgebraData(d.hopf, d.algebra, action)
    # the first refusal: the module law, then the unit, then the product
    module = oracles.dense_representation_witness(
        d.hopf.algebra, oracles.dense_action_matrices(dom, action, ds))
    failures = list(oracles.module_algebra_failures(bad))
    if module is not None:
        expected = ("module-law", module)
    elif any(w[1] == "unit" for w in failures):
        expected = ("module-algebra-unit", ())
    elif failures:
        # the least pair of S at which the law fails for some a
        expected = ("module-algebra-mult", min(w[1:] for w in failures))
    else:
        expected = None
    try:
        actions.verify_module_algebra(bad)
        refusal = None
    except AxiomError as exc:
        refusal = (exc.check, exc.witness)
    assert refusal == expected


# invariants --------------------------------------------------------------------


def test_invariants_gaussian():
    d = ext("gaussian")
    assert hopf.fixed_points(d.hopf, d.action) == ((Fraction(1), Fraction(0)),)


def test_invariants_trivial_action_whole_space():
    d = ext("gaussian-trivial")
    assert len(hopf.fixed_points(d.hopf, d.action)) == 2


def test_invariants_derivation():
    d = ext("truncated-polynomial")
    assert hopf.fixed_points(d.hopf, d.action) == (((1, 0)),)


# smash product -----------------------------------------------------------------


def test_smash_structure_gaussian():
    sm = actions.smash(ext("gaussian"))
    assert sm.dim == 4
    assert sm.algebra.labels == ("1#1", "1#s", "x#1", "x#s")
    # (x#s)(x#1) = x sigma(x) # s = 1#s, expanded by hand
    assert sm.algebra.mult[3][2] == ((1, Fraction(1)),)
    # the unit is 1#1
    assert sm.algebra.unit == (Fraction(1), 0, 0, 0)


def test_smash_is_associative_by_construction():
    sm = actions.smash(ext("f4-frobenius"))
    assert sm.algebra.associativity_witness() is None


@pytest.mark.parametrize("name", sorted(zoo.extension_registry()))
def test_smash_product_passes_the_full_algebra_scan(name):
    # S#H is built without a check: S is an H-module algebra
    alg = actions.smash(ext(name)).algebra
    assert oracles.algebra_axiom_failure(
        alg.domain, alg.dim, oracles.mult_triples(alg), alg.unit) is None


@given(st.sampled_from(sorted(zoo.extension_registry())), st.data())
def test_corrupted_smash_product_is_refused_at_the_oracle_witness(name, data):
    # the validating constructor on S#H with one multiplication cell replaced
    alg = actions.smash(ext(name)).algebra
    n, dom = alg.dim, alg.domain
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    c = data.draw(st.integers(-2, 2))
    triples = [t for t in oracles.mult_triples(alg) if t[:2] != (i, j)] + [(i, j, k, c)]
    expected = oracles.algebra_axiom_failure(dom, n, triples, alg.unit)
    try:
        hopf.algebra_from_triples(dom, n, alg.labels, triples, alg.unit)
    except AxiomError as exc:
        assert (exc.check, exc.witness) == expected
    else:
        assert expected is None


# Galois maps -------------------------------------------------------------------


def test_galois_j_gaussian_bijective_with_oracle():
    j = actions.galois_map_j(ext("gaussian"))
    rows = [list(r) for r in j.matrix.to_dense().rows]
    assert oracles.minor_rank(rows) == 4
    assert j.rank == 4 and j.bijective


def test_galois_j_f4_bijective_with_oracle():
    j = actions.galois_map_j(ext("f4-frobenius"))
    rows = [list(r) for r in j.matrix.to_dense().rows]
    assert oracles.minor_rank(rows, oracles.mod_p_nonzero(2)) == 4
    assert j.bijective


def test_galois_j_trivial_action_small_image():
    j = actions.galois_map_j(ext("gaussian-trivial"))
    assert not j.bijective
    assert j.rank <= 2


def test_gamma_matches_j_on_registry():
    for name, d in zoo.extension_registry().items():
        j = actions.galois_map_j(d)
        gamma = actions.galois_map_gamma(d)
        assert j.bijective == gamma.bijective, name


def test_gamma_algebra_map_when_bijective():
    # whenever gamma is bijective it is multiplicative, across the registry
    checked = 0
    for name, d in zoo.extension_registry().items():
        if actions.galois_map_gamma(d).bijective:
            assert actions.gamma_is_algebra_map(d), name
            checked += 1
    assert checked >= 5
    # the Gaussian case on the basis (x, 1), whose unit is not e_0
    alg = hopf.algebra_from_triples(
        QQ, 2, ("x", "1"), [(0, 0, 1, -1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)], (0, 1))
    d = actions.module_algebra(
        zoo.qc2(), alg, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, -1), (1, 1, 1, 1)])
    assert actions.galois_map_gamma(d).bijective and actions.gamma_is_algebra_map(d)
    with pytest.raises(PreconditionError):
        actions.gamma_is_algebra_map(ext("gaussian-trivial"))


def test_gamma_bijective_but_not_multiplicative():
    # Sweedler's algebra over its dual by the harpoon: gamma(g (x) x) =
    # gx (x) 1 + 1 (x) x, while gamma(1 (x) x) gamma(g (x) 1) = xg (x) 1 + 1 (x) x
    # and xg = -gx
    d = harpoon_extension(hopf.sweedler(QQ))
    assert actions.galois_map_gamma(d).bijective
    assert d.algebra.mult[2][1] == ((3, QQ.normalize(-1)),)
    assert not actions.gamma_is_algebra_map(d)


# faithfulness ------------------------------------------------------------------


def test_faithfulness():
    assert actions.is_faithful(ext("gaussian"))
    assert not actions.is_faithful(ext("gaussian-trivial"))
    assert actions.is_faithful(zoo.sweedler_regular_action())


# classification ----------------------------------------------------------------


def test_classify_f4():
    rep = actions.classify_extension(ext("f4-frobenius"))
    assert rep.tame and rep.hopf_galois
    assert rep.equivalence_applies
    assert rep.classification == "tame+hopf-galois"
    # I.S = F2: (1 + frobenius)(y) = y + y + 1 = 1
    assert rep.integral_image_basis == ((1, 0),)


def test_classify_truncated_polynomial():
    rep = actions.classify_extension(ext("truncated-polynomial"))
    assert rep.tame and rep.hopf_galois
    assert rep.integral_image_basis == ((1, 0),)  # d(t) = 1 spans the base


def test_classify_trivial_action():
    rep = actions.classify_extension(ext("gaussian-trivial"))
    assert not rep.tame
    assert not rep.rank_equal or rep.rank_equal  # rank equality does hold here
    assert not rep.faithful
    assert rep.classification == "not-an-extension"


def test_classify_one_dimensional_degenerate_cases():
    # QC2 acting on S = Q.1: rank mismatch and unfaithful, so never tame;
    # the trivial Hopf algebra on the same S is trivially tame
    h = zoo.qc2()
    point = hopf.algebra_from_triples(QQ, 1, ("1",), [(0, 0, 0, 1)], (1,))
    d = actions.module_algebra(h, point, [(0, 0, 0, 1), (1, 0, 0, 1)])
    rep = actions.classify_extension(d)
    assert rep.is_extension
    assert not rep.rank_equal and not rep.faithful and not rep.tame
    triv = hopf.group_algebra(QQ, [[0]])
    d1 = actions.module_algebra(triv, point, [(0, 0, 0, 1)])
    rep1 = actions.classify_extension(d1)
    assert rep1.tame and rep1.hopf_galois


def test_classify_dual_graded_is_tame_but_not_galois():
    # tame with vanishing homology while j fails: the Hopf algebra is not
    # local, exactly the boundary of the equivalence hypotheses
    rep = actions.classify_extension(ext("dual-graded-truncated"))
    assert rep.tame
    assert not rep.hopf_galois
    assert not rep.hopf_local
    assert not rep.equivalence_applies


def test_integral_image_always_inside_invariants():
    # the homology report takes I.S inside S^H from the theory and does not check it
    for name, d in zoo.extension_registry().items():
        hom = actions.hopfological_homology_module(d.hopf, d.action)
        assert linalg.span_le(d.domain, hom.image_basis, hom.fixed_basis), name


# total integral ----------------------------------------------------------------


def test_total_integral_f4():
    result = actions.total_integral_map(ext("f4-frobenius"))
    assert result.present
    # trace(y) = y + y^2 = 1, so z = y is the Prop-D1 witness
    assert result.z == (0, 1)


def test_total_integral_swap():
    result = actions.total_integral_map(zoo.swap_extension(2))
    assert result.present


def test_total_integral_absent_with_obstruction():
    result = actions.total_integral_map(ext("gaussian-trivial"))
    assert not result.present
    assert result.obstruction is not None


def test_total_integral_properties_on_tame_registry():
    for name, d in zoo.extension_registry().items():
        rep = actions.classify_extension(d)
        result = actions.total_integral_map(d)
        assert result.present == rep.tame, name
        if result.present:
            g = result.matrix.to_dense()
            h = d.hopf
            dual_maps = actions.action_maps(h.domain, actions.dual_action(h), h.dim)
            maps = actions.action_maps(h.domain, d.action, d.algebra.dim)
            # g(1) = 1 and H-linearity, checked against the raw action
            assert oracles.dense_apply(g, h.counit) == tuple(d.algebra.unit), name
            for a in range(h.dim):
                left = g @ dual_maps[a].to_dense()
                right = maps[a].to_dense() @ g
                assert left == right, name


@pytest.mark.parametrize("name", list(zoo.extension_registry()))
def test_module_actions_match_dense_oracle(name):
    d = ext(name)
    dom, ds = d.domain, d.algebra.dim
    mats = oracles.dense_action_matrices(dom, d.action, ds)
    assert actions.action_maps(dom, d.action, ds) == [linalg.ColumnMap.from_dense(m) for m in mats]
    hom = actions.hopfological_homology_module(d.hopf, d.action)
    assert hom.fixed_basis == oracles.dense_fixed_points(d.hopf, mats)
    assert hopf.verify_module_over_algebra(d.hopf.algebra, d.action) is None
    assert oracles.dense_representation_witness(d.hopf.algebra, mats) is None
    integral = hopf.left_integrals(d.hopf).basis[0]
    acting = oracles.combination(dom, integral, mats, ds, ds)
    assert actions.acting_map(dom, d.action, ds, integral).to_dense() == acting
    assert hom.image_basis == linalg.column_space_basis(acting)


# hopfological homology ----------------------------------------------------------


def trivial_module(h):
    return tuple((((0, h.counit[a]),),) for a in range(h.dim))


def test_homology_trivial_modules():
    assert actions.hopfological_homology_module(zoo.fpc2(2), trivial_module(zoo.fpc2(2))).dim_h0 == 1
    assert actions.hopfological_homology_module(zoo.qc2(), trivial_module(zoo.qc2())).dim_h0 == 0


def test_homology_regular_module_vanishes():
    d = zoo.sweedler_regular_action()
    assert actions.hopfological_homology_module(d.hopf, d.action).dim_h0 == 0


def test_homology_inclusion_is_asserted():
    d = ext("gaussian")
    hom = actions.hopfological_homology_module(d.hopf, d.action)
    assert hom.dim_h0 == hom.dim_fixed - hom.dim_image
    assert linalg.span_le(d.domain, hom.image_basis, hom.fixed_basis)


# smash modules and Morita --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gaussian_smash():
    return actions.smash(ext("gaussian"))


def test_fixed_points_smash_dims():
    sm = gaussian_smash()
    assert len(actions.fixed_points_smash(actions.regular_smash_module(sm))) == 2
    amod = actions.algebra_smash_module(sm)
    assert actions.fixed_points_smash(amod) == ((Fraction(1), Fraction(0)),)


def test_fixed_points_trivial_hopf():
    triv = hopf.group_algebra(QQ, [[0]])
    alg = hopf.algebra_from_triples(QQ, 2, ("1", "x"), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)], (1, 0))
    d = actions.module_algebra(triv, alg, [(0, 0, 0, 1), (0, 1, 1, 1)])
    sm = actions.smash(d)
    mod = actions.regular_smash_module(sm)
    assert len(actions.fixed_points_smash(mod)) == mod.dim


def test_morita_decomposition_sizes():
    sm = gaussian_smash()
    regular = actions.regular_smash_module(sm)
    algebra = actions.algebra_smash_module(sm)
    both = actions.direct_sum_smash_modules(algebra, regular)
    for module, dims in ((regular, (4, 2)), (algebra, (2, 1)), (both, (6, 3))):
        rep = actions.morita_decomposition(module)
        assert rep.bijective
        assert (rep.dim_module, rep.dim_fixed) == dims
        assert rep.dim_module == 2 * rep.dim_fixed


def test_morita_needs_bijective_j():
    d = ext("gaussian-trivial")
    sm = actions.smash(d)
    with pytest.raises(PreconditionError):
        actions.morita_decomposition(actions.regular_smash_module(sm))


@functools.lru_cache(maxsize=None)
def registry_smash(name):
    return actions.smash(ext(name))


@given(
    st.sampled_from(sorted(zoo.extension_registry())),
    st.lists(st.sampled_from(["regular", "algebra"]), min_size=1, max_size=3),
)
@example("gaussian", ["algebra", "regular"])
def test_derived_smash_modules_satisfy_the_module_law(name, parts):
    # S#H and S are S#H-modules, and so is a direct sum of modules
    sm = registry_smash(name)
    build = {"regular": actions.regular_smash_module, "algebra": actions.algebra_smash_module}
    module = build[parts[0]](sm)
    for part in parts[1:]:
        module = actions.direct_sum_smash_modules(module, build[part](sm))
    maps = actions.action_maps(module.domain, module.action, module.dim)
    assert sm.algebra.representation_witness(maps) is None
    mats = oracles.dense_action_matrices(module.domain, module.action, module.dim)
    assert oracles.dense_representation_witness(sm.algebra, mats) is None


def test_morita_dimension_formula_across_registry():
    # dim M = dim S * dim M^H for a smash module whenever j is bijective
    for name, d in zoo.extension_registry().items():
        if not actions.galois_map_j(d).bijective:
            continue
        sm = actions.smash(d)
        rep = actions.morita_decomposition(actions.regular_smash_module(sm))
        assert rep.bijective, name
        assert rep.dim_module == d.algebra.dim * rep.dim_fixed, name
