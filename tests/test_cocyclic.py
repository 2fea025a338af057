import functools
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfgal import actions, cocyclic, hopf, linalg, zoo
from hopfgal.errors import (
    AxiomError,
    HopfgalError,
    PreconditionError,
    ResourceBoundError,
)
from hopfgal.linalg import GF, QQ, ColumnMap, Matrix, on_slot

import oracles
from test_hopf import group_algebras, group_tables, relabelled_table, twisted_group_algebras


@functools.lru_cache(maxsize=None)
def graded(p, strongly=True):
    return zoo.graded_line_comodule_algebra(p, strongly)


@functools.lru_cache(maxsize=None)
def ayd_trivial(p):
    return zoo.group_like_ayd(zoo.fpc2(p), action="trivial")


@functools.lru_cache(maxsize=None)
def ayd_swap(p):
    return zoo.group_like_ayd(zoo.fpc2(p), action="regular")


# comodule construction -----------------------------------------------------------


def test_comodule_counit_violation_rejected():
    h = zoo.qc2()
    with pytest.raises(AxiomError):
        # rho(e_0) = e_0 (x) (1 + s) collapses to 2 e_0 under the counit
        cocyclic.comodule_from_triples(h, 1, [(0, 0, 0, 1), (0, 0, 1, 1)])


def test_comodule_coassociativity_violation_rejected():
    sw = hopf.sweedler(QQ)
    # rho(m) = m (x) (1 + x) satisfies counit but not coassociativity
    with pytest.raises(AxiomError):
        cocyclic.comodule_from_triples(sw, 1, [(0, 0, 0, 1), (0, 0, 2, 1)])


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2)),
        max_size=4,
    )
)
def test_fuzzed_coactions_rejected_or_lawful(entries):
    h = zoo.qc2()
    try:
        c = cocyclic.comodule_from_triples(h, 2, entries)
    except HopfgalError:
        return
    # accepted data satisfies every comodule law
    assert oracles.comodule_law_witness(c) is None


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 3), st.integers(-1, 1)),
        max_size=6,
    )
)
def test_comodule_from_triples_refuses_exactly_what_the_oracle_refuses(entries):
    # Sweedler's algebra: noncommutative, with multi-leg comultiplications
    h = hopf.sweedler(QQ)
    witness = oracles.comodule_law_witness(cocyclic._comodule(h, 2, entries))
    try:
        cocyclic.comodule_from_triples(h, 2, entries)
    except AxiomError as exc:
        assert (exc.check, exc.witness) == witness
    else:
        assert witness is None


# derived comodules and relative Hopf modules ---------------------------------------
#
# Built without a check: each is lawful by a theorem, and the full loops of
# `oracles` confirm it.

# Fixture comodules grouped by their Hopf algebra, so that any of a group
# tensor together.  Sweedler's regular comodule is noncommutative with
# multi-leg coactions.
@functools.lru_cache(maxsize=None)
def comodule_groups():
    sw = hopf.sweedler(QQ)
    f3 = zoo.fpc2(3)
    return (
        (cocyclic.regular_comodule(sw), cocyclic.trivial_comodule(sw, 2),
         zoo.group_like_ayd(sw, action="regular").comodule),
        (graded(3).comodule, ayd_swap(3).comodule, cocyclic.regular_comodule(f3),
         cocyclic.trivial_comodule(f3, 1)),
        (zoo.graded_line_comodule_algebra_q().comodule, cocyclic.regular_comodule(zoo.qc2())),
    )


@given(st.integers(0, 2), st.lists(st.integers(0, 3), min_size=1, max_size=3))
@example(0, [0, 0, 0])
@example(0, [2, 0, 1])
def test_tensor_powers_are_comodules(group, picks):
    comodules = comodule_groups()[group]
    power = comodules[picks[0] % len(comodules)]
    for pick in picks[1:]:
        power = cocyclic.tensor_comodule(power, comodules[pick % len(comodules)])
    assert oracles.comodule_law_witness(power) is None


@given(group_algebras(), st.integers(0, 3))
def test_regular_and_trivial_comodules_are_comodules(h, dim):
    assert oracles.comodule_law_witness(cocyclic.regular_comodule(h)) is None
    assert oracles.comodule_law_witness(cocyclic.trivial_comodule(h, dim)) is None


@pytest.mark.parametrize("h", [hopf.sweedler(QQ), hopf.taft(GF(7), 3, 2)],
                         ids=["sweedler", "taft3-f7"])
def test_regular_and_trivial_comodules_of_noncommutative_algebras(h):
    assert oracles.comodule_law_witness(cocyclic.regular_comodule(h)) is None
    assert oracles.comodule_law_witness(cocyclic.trivial_comodule(h, 2)) is None


@pytest.mark.parametrize("name", sorted(zoo.extension_registry()))
def test_dictionary_image_of_every_extension_is_a_comodule(name):
    d = zoo.extension_registry()[name]
    c = cocyclic.module_to_comodule(d.hopf, d.action)
    assert oracles.comodule_law_witness(c) is None
    # the dictionary image of the regular module of H as well
    c = cocyclic.module_to_comodule(d.hopf, d.hopf.algebra.mult)
    assert oracles.comodule_law_witness(c) is None


def comodule_algebras():
    """Comodule algebras: gradings, Sweedler's regular coaction, and the
    converted module algebras of the registry."""
    sw = hopf.sweedler(QQ)
    out = {
        "graded-f3": graded(3),
        "graded-f3-nsg": graded(3, strongly=False),
        "graded-f2": graded(2),
        "graded-q": zoo.graded_line_comodule_algebra_q(),
        "sweedler-regular": cocyclic.ComoduleAlgebraData(sw.algebra, cocyclic.regular_comodule(sw)),
    }
    for name, d in zoo.extension_registry().items():
        out[f"converted-{name}"] = cocyclic.module_algebra_to_comodule_algebra(d)
    return out


COMODULE_ALGEBRAS = comodule_algebras()


@pytest.mark.parametrize("name", sorted(zoo.extension_registry()))
def test_dictionary_image_of_every_extension_is_a_comodule_algebra(name):
    # built without a check: the module-algebra law of the extension implies it
    S = cocyclic.module_algebra_to_comodule_algebra(zoo.extension_registry()[name])
    assert oracles.comodule_algebra_witness(S) is None


@st.composite
def graded_algebras(draw):
    """A Hopf algebra k C_m, an algebra S and the coaction entries of a
    grading of S by C_m: always a comodule, and a comodule algebra only
    when the degrees add under the product of S and the unit has degree 0.

    S is k[t]/(t^n) or k C_n, n = 2..4.  The degrees are i * step on the
    i-th basis element, which adds for the powers of t, and often one of
    them is overwritten."""
    dom = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        mult = [(i, j, i + j, 1) for i in range(n) for j in range(n) if i + j < n]
    else:
        mult = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    step = draw(st.integers(0, m - 1))
    degrees = [i * step % m for i in range(n)]
    if draw(st.booleans()):
        degrees[draw(st.integers(0, n - 1))] = draw(st.integers(0, m - 1))
    alg = hopf.algebra_from_triples(
        dom, n, [f"e{i}" for i in range(n)], mult, linalg.unit_vec(dom, n, 0))
    h = hopf.group_algebra(dom, zoo.cyclic_table(m))
    return h, alg, [(s, s, degrees[s], 1) for s in range(n)]


def sweedler_with_cell(s, j, h, c):
    """Sweedler's algebra over Q and the coaction entries of Delta with the
    coefficient of e_j (x) e_h in Delta(e_s) set to c."""
    sw = hopf.sweedler(QQ)
    triples = [(t, a, b, w) for t in range(4) for a, b, w in sw.comult[t] if (t, a, b) != (s, j, h)]
    return sw, sw.algebra, triples + [(s, j, h, c)]


@st.composite
def sweedler_coactions(draw):
    """Sweedler's regular comodule algebra with one coaction cell changed:
    multi-leg coactions that the comodule laws or the comodule-algebra law
    refuse, or that stay the regular comodule algebra."""
    s, j, h = (draw(st.integers(0, 3)) for _ in range(3))
    return sweedler_with_cell(s, j, h, draw(st.sampled_from([0, 1, -1, 2])))


def klein_grading(degrees):
    """k (C_2 x C_2) over F_5, basis 1, x, y, xy, with the C_3-grading of
    the given degrees: two generators x and y."""
    dom = GF(5)
    klein = zoo.product_table(zoo.cyclic_table(2), zoo.cyclic_table(2))
    alg = hopf.algebra_from_triples(dom, 4, ["1", "x", "y", "xy"], [
        (i, j, k, 1) for i, row in enumerate(klein) for j, k in enumerate(row)
    ], linalg.unit_vec(dom, 4, 0))
    h = hopf.group_algebra(dom, zoo.cyclic_table(3))
    return h, alg, [(s, s, degrees[s], 1) for s in range(4)]


# rho(x) = x (x) 1 keeps the comodule laws, and rho(g x) = rho(g) rho(x) fails
@example(sweedler_with_cell(2, 1, 2, 0))
# deg y = 1 in C_3: the row of the first generator x holds, y y = 1 fails
@example(klein_grading([0, 0, 1, 1]))
@given(st.one_of(graded_algebras(), sweedler_coactions()))
def test_comodule_algebra_refuses_exactly_what_the_oracle_refuses(case):
    h, alg, triples = case
    record = cocyclic.ComoduleAlgebraData(alg, cocyclic._comodule(h, alg.dim, triples))
    witness = (oracles.comodule_law_witness(record.comodule)
               or oracles.comodule_algebra_witness(record))
    try:
        S = cocyclic.comodule_algebra(h, alg, triples)
    except AxiomError as exc:
        assert (exc.check, exc.witness) == witness
    else:
        assert witness is None
        assert S == record


@given(st.sampled_from(sorted(COMODULE_ALGEBRAS)), st.integers(1, 3))
@example("sweedler-regular", 2)
def test_relative_module_constructors_are_relative_hopf_modules(name, extra_dim):
    S = COMODULE_ALGEBRAS[name]
    for m in (cocyclic.algebra_as_relative_module(S), cocyclic.cofree_relative_module(S, extra_dim)):
        assert oracles.relative_module_witness(m) is None
        assert oracles.comodule_law_witness(m.comodule) is None


# dictionaries --------------------------------------------------------------------


def regular_modules():
    """H of every zoo extension, Sweedler's algebra and Taft n = 3 over F_7."""
    hs = [d.hopf for d in zoo.extension_registry().values()]
    return hs + [hopf.sweedler(QQ), hopf.taft(GF(7), 3, 2)]


@pytest.mark.parametrize("h,action", [
    *[(d.hopf, d.action) for d in zoo.extension_registry().values()],
    *[(h, h.algebra.mult) for h in regular_modules()],
])
def test_dictionary_image_equals_the_sparse_tensor_build(h, action):
    # the coaction read off the action matches the canonical build from entries
    dim = len(action[0])
    triples = [(m, m2, a, c) for a, block in enumerate(action) for m, cell in enumerate(block)
               for m2, c in cell]
    expected = cocyclic.ComoduleData(
        hopf.dual(h), dim, hopf.sparse_tensor(h.domain, (dim, dim, h.dim), triples, 1))
    assert cocyclic.module_to_comodule(h, action) == expected


def test_dual_mult_is_the_product_of_the_dual_over_any_domain():
    for h in regular_modules():
        assert hopf.dual_mult(h) == hopf.dual(h).algebra.mult
    # over Z, where dual() refuses: delta_g delta_h = [g = h] delta_g
    h = hopf.group_algebra(linalg.ZZ, zoo.cyclic_table(3))
    assert hopf.dual_mult(h) == tuple(
        tuple(((i, 1),) if i == j else () for j in range(3)) for i in range(3))


def test_trivial_module_gives_trivial_coaction():
    h = zoo.qc2()
    action = tuple((((0, h.counit[a]),),) for a in range(2))
    c = cocyclic.module_to_comodule(h, action)
    # m (x) 1_{H*} with 1_{H*} the counit = delta_1 + delta_s
    assert c.coaction == (((0, 0, Fraction(1)), (0, 1, Fraction(1))),)


def test_regular_module_coaction_is_comultiplication_transport():
    sw = hopf.sweedler(QQ)
    c = cocyclic.module_to_comodule(sw, sw.algebra.mult)
    # rho(e_m) contains c e_m2 (x) e_a* exactly when e_a e_m contains c e_m2
    for m in range(4):
        expected = sorted((m2, a, w) for a in range(4) for m2, w in sw.algebra.mult[a][m])
        assert c.coaction[m] == tuple(expected)


def test_module_comodule_roundtrip_instances():
    insts = [
        zoo.gaussian_extension(),
        zoo.f4_frobenius_extension(),
        zoo.truncated_polynomial_extension(),
    ]
    for d in insts:
        c = cocyclic.module_to_comodule(d.hopf, d.action)
        dual_h, back = cocyclic.comodule_to_module(c)
        assert back == d.action
        assert dual_h.algebra.mult == d.hopf.algebra.mult


def test_grading_coaction_to_action_projects():
    h = zoo.fpc2(3)
    grade = cocyclic.comodule_from_triples(h, 2, [(0, 0, 0, 1), (1, 1, 1, 1)])
    dual_h, action = cocyclic.comodule_to_module(grade)
    # delta_e projects onto the degree-e part
    assert action[0] == (((0, 1),), ())
    assert action[1] == ((), ((1, 1),))


# coinvariants and homology --------------------------------------------------------


def test_coinvariants_examples():
    h = zoo.fpc2(3)
    grade = cocyclic.comodule_from_triples(h, 2, [(0, 0, 0, 1), (1, 1, 1, 1)])
    assert cocyclic.coinvariants(grade) == ((1, 0),)
    assert len(cocyclic.coinvariants(cocyclic.trivial_comodule(h, 2))) == 2
    # regular coaction on QC2: brute-force solve rho(z) = z (x) 1 gives span{1}
    reg = cocyclic.regular_comodule(zoo.qc2())
    assert cocyclic.coinvariants(reg) == ((Fraction(1), Fraction(0)),)


# The comodules of the coinvariant tests: a grading, trivial coactions, the
# regular comodules of a group algebra and of Sweedler's algebra (multi-leg
# coactions), a tensor square, the AYD coefficients and the zero comodule.
COMODULE_CASES = {
    "grading-f3": lambda: cocyclic.comodule_from_triples(
        zoo.fpc2(3), 2, [(0, 0, 0, 1), (1, 1, 1, 1)]),
    "trivial-f3": lambda: cocyclic.trivial_comodule(zoo.fpc2(3), 2),
    "trivial-dual-f2c2": lambda: cocyclic.trivial_comodule(hopf.dual(zoo.fpc2(2)), 1),
    "regular-qc2": lambda: cocyclic.regular_comodule(zoo.qc2()),
    "regular-sweedler": lambda: cocyclic.regular_comodule(hopf.sweedler(QQ)),
    "regular-sweedler-squared": lambda: cocyclic.tensor_comodule(
        cocyclic.regular_comodule(hopf.sweedler(QQ)), cocyclic.regular_comodule(hopf.sweedler(QQ))),
    "ayd-swap-f3": lambda: ayd_swap(3).comodule,
    "graded-line-f3": lambda: graded(3).comodule,
    "zero-qc2": lambda: cocyclic.trivial_comodule(zoo.qc2(), 0),
}


@pytest.mark.parametrize("case", COMODULE_CASES)
def test_coinvariants_are_fixed_points_of_the_dual_action(case):
    c = COMODULE_CASES[case]()
    dual_h, action = cocyclic.comodule_to_module(c)
    mats = oracles.dense_action_matrices(c.domain, action, c.dim)
    coinvariants = oracles.dense_coinvariants(c)
    assert cocyclic.coinvariants(c) == coinvariants == oracles.dense_fixed_points(dual_h, mats)


def test_comodule_homology_cofree_vanishes():
    hom = cocyclic.hopfological_homology_comodule(cocyclic.regular_comodule(hopf.sweedler(QQ)))
    assert hom.dim_h0 == 0


def test_comodule_homology_trivial_over_dual():
    dual_h = hopf.dual(zoo.fpc2(2))
    hom = cocyclic.hopfological_homology_comodule(cocyclic.trivial_comodule(dual_h, 1))
    assert hom.dim_h0 == 1


def test_comodule_homology_zero_module():
    hom = cocyclic.hopfological_homology_comodule(cocyclic.trivial_comodule(zoo.qc2(), 0))
    assert hom.dim_h0 == 0


# AYD ------------------------------------------------------------------------------


def test_trivial_action_group_like_is_stable_ayd():
    ok, witness = cocyclic.ayd_check(ayd_trivial(3))
    assert ok and witness is None
    ok, witness = cocyclic.stability_check(ayd_trivial(3))
    assert ok


def test_trivial_one_dim_is_ayd_over_cocommutative():
    h = zoo.qc2()
    comod = cocyclic.trivial_comodule(h, 1)
    action = tuple((((0, h.counit[a]),),) for a in range(2))
    m = cocyclic.AydModuleData(comod, action)
    assert cocyclic.ayd_check(m) == (True, None)
    assert cocyclic.stability_check(m) == (True, None)


def test_swap_action_fails_ayd_with_witness():
    ok, witness = cocyclic.ayd_check(ayd_swap(3))
    assert not ok
    assert witness == (1, 0)  # (sigma, e)
    with pytest.raises(PreconditionError):
        cocyclic.stability_check(ayd_swap(3))


def test_sign_module_satisfies_ayd_but_not_stability():
    # one-dimensional module with sigma acting by -1, placed in degree
    # sigma: the AYD law collapses on both sides, but m_(-1) . m_(0) = -m
    h = zoo.qc2()
    comod = cocyclic.comodule_from_triples(h, 1, [(0, 0, 1, 1)])
    action = ((((0, Fraction(1)),),), (((0, Fraction(-1)),),))
    m = cocyclic.AydModuleData(comod, action)
    assert cocyclic.ayd_check(m) == (True, None)
    ok, witness = cocyclic.stability_check(m)
    assert not ok
    assert witness == (0,)


# cotensor -------------------------------------------------------------------------


def test_cotensor_degree_matching():
    S = graded(3)
    M = ayd_trivial(3)
    basis = cocyclic.cotensor(S.comodule, M.comodule)
    # hand oracle: legs match exactly on 1 (x) e and x (x) s
    assert basis == ColumnMap(S.domain, 4, [((0, 1),), ((3, 1),)])


def test_cotensor_with_trivial_coefficient():
    S = graded(3)
    trivial = cocyclic.trivial_comodule(S.hopf, 1)
    basis = cocyclic.cotensor(S.comodule, trivial)
    assert basis == ColumnMap(S.domain, 2, [((0, 1),)])  # only the degree-e slot survives


def test_cotensor_kernel_work_is_linear_in_its_nonzeros(monkeypatch):
    # A work count, not a timing: the interpreted lines of `linalg` that
    # the cotensor kernels of levels 7 and 9 run, per nonzero of their
    # systems.  Elimination that visits every stored row for each new
    # pivot runs about 310 lines per nonzero at level 7 and 1080 at level
    # 9, and grows with the level; the rows of this system stay sparse,
    # so linear elimination runs the same few dozen at every level.
    S, M = graded(3), ayd_trivial(3)
    linalg_file, kernel_map = linalg.__file__, linalg.kernel_map
    lines, nonzeros = [0], [0]

    def line(frame, event, arg):
        lines[0] += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == linalg_file else None

    def counted(m):
        nonzeros[0] += sum(len(col) for col in m.cols)
        previous = sys.gettrace()
        sys.settrace(call)
        try:
            return kernel_map(m)
        finally:
            sys.settrace(previous)

    monkeypatch.setattr(linalg, "kernel_map", counted)
    per_nonzero = {}
    for level in (7, 9):
        lines[0] = nonzeros[0] = 0
        basis = cocyclic.cotensor(cocyclic.tensor_power(S.comodule, level + 1), M.comodule)
        assert basis.ncols == 2 ** (level + 1)
        per_nonzero[level] = lines[0] / nonzeros[0]
    assert per_nonzero[9] <= 1.1 * per_nonzero[7]
    assert per_nonzero[9] <= 64


# cyclic levels --------------------------------------------------------------------


@st.composite
def validated_algebras(draw):
    """A group algebra of a random group table over Q or F_5, or a twisted
    group algebra over F_7, drawn until one passes construction."""
    if draw(st.booleans()):
        table = draw(group_tables())
        dom, n = draw(st.sampled_from([QQ, GF(5)])), len(table)
        triples = [(i, j, table[i][j], 1) for i in range(n) for j in range(n)]
    else:
        dom, (n, triples) = GF(7), draw(twisted_group_algebras())
    try:
        return hopf.algebra_from_triples(dom, n, [f"e{i}" for i in range(n)], triples,
                                         linalg.unit_vec(dom, n, 0))
    except AxiomError:
        assume(False)


# The reductions behind the cyclic identity checks: on adjacent slots, faces
# and degeneracies (on_slot builds of the multiplication m and unit eta of a
# validated S) satisfy m (m (x) I) = m (I (x) m) and m (eta (x) I) = I =
# m (I (x) eta), in any context I_left (x) - (x) I_right.
@given(validated_algebras(), st.integers(1, 2), st.integers(1, 2))
def test_on_slot_faces_reduce_by_associativity_and_unit(alg, left, right):
    dom, ds = alg.domain, alg.dim
    m = cocyclic._mult_map(alg)
    eta = ColumnMap(dom, ds, [tuple((k, u) for k, u in enumerate(alg.unit) if u)])

    def composed(a, a_left, a_right, b, b_left, b_right):
        product = on_slot(a_left, a, a_right) @ on_slot(b_left, b, b_right)
        dense = (oracles.dense_on_slot(dom, a_left, a.to_dense(), a_right)
                 @ oracles.dense_on_slot(dom, b_left, b.to_dense(), b_right))
        assert product == ColumnMap.from_dense(dense)
        return product

    assert (composed(m, left, right, m, left, ds * right)
            == composed(m, left, right, m, left * ds, right))
    identity = ColumnMap.identity(dom, left * ds * right)
    assert composed(m, left, right, eta, left, ds * right) == identity
    assert composed(m, left, right, eta, left * ds, right) == identity


def test_level_one_cyclic_operator_is_rotation_for_trivial_action():
    S = graded(3)
    M = ayd_trivial(3)
    t = cocyclic.cyclic_matrix(S, M, 1)
    # with a trivial action the coaction leg is absorbed and t swaps slots
    assert (t @ t).to_dense() == Matrix.identity(S.domain, t.nrows)


def test_degeneracies_are_split_injections():
    S = graded(3)
    M = ayd_trivial(3)
    for n in range(3):
        for i in range(n + 1):
            s = cocyclic.degeneracy_matrix(S, M, n, i)
            assert linalg.rank(s.to_dense()) == s.ncols


def test_identities_all_levels_trivial_coefficients():
    for p in (3, 2):
        S = graded(p)
        M = ayd_trivial(p)
        for n in range(4):
            rep = cocyclic.check_cyclic_identities(S, M, n)
            assert rep.verdicts == (True, True, True), (p, n)
            assert rep.t_preserves_cotensor


def test_identities_swap_coefficients_cyclicity_fails():
    S = graded(3)
    M = ayd_swap(3)
    rep = cocyclic.check_cyclic_identities(S, M, 1)
    assert rep.simplicial_ok and rep.rotation_ok
    assert not rep.cyclicity_ok
    assert rep.cyclicity_witness is not None


def test_level_bound():
    S = graded(3)
    M = ayd_trivial(3)
    with pytest.raises(ResourceBoundError, match=r"^level 3 has dimension 32 > bound 16$"):
        cocyclic.check_cyclic_identities(S, M, 3, max_dim=16)
    # the level 2 identities reach level 3
    with pytest.raises(ResourceBoundError, match=r"^level 3 has dimension 32 > bound 16$"):
        cocyclic.check_cyclic_identities(S, M, 2, max_dim=16)


@functools.lru_cache(maxsize=None)
def scaled_square(p, c):
    """The graded line with x^2 = c over F_p, so the faces hold one-entry
    columns with coefficient c."""
    alg = hopf.algebra_from_triples(GF(p), 2, ("1", "x"),
                                    [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, c)], (1, 0))
    return cocyclic.comodule_algebra(zoo.fpc2(p), alg, [(0, 0, 0, 1), (1, 1, 1, 1)])


# Fixtures of the differential tests: AYD and non-AYD (swap) coefficients, a
# comodule algebra that is not strongly graded, one whose faces hold columns
# with coefficient 2, and the version over Q.
DENSE_ORACLE_CASES = {
    "ayd": lambda: (graded(3), ayd_trivial(3)),
    "swap": lambda: (graded(3), ayd_swap(3)),
    "not-strongly-graded": lambda: (graded(3, False), ayd_trivial(3)),
    "scaled-square": lambda: (scaled_square(5, 2), zoo.group_like_ayd(zoo.fpc2(5))),
    "q": lambda: (zoo.graded_line_comodule_algebra_q(), zoo.group_like_ayd(zoo.qc2())),
}


def assert_level_matches_dense_oracles(S, M, n):
    assert cocyclic.cyclic_matrix(S, M, n).to_dense() == oracles.dense_cyclic_matrix(S, M, n), n
    for i in range(n + 1):
        if n >= 1:
            d = cocyclic.face_matrix(S, M, n, i)
            assert d.to_dense() == oracles.dense_face_matrix(S, M, n, i), (n, i)
        s = cocyclic.degeneracy_matrix(S, M, n, i)
        assert s.to_dense() == oracles.dense_degeneracy_matrix(S, M, n, i), (n, i)


@pytest.mark.parametrize("case", DENSE_ORACLE_CASES)
def test_operators_match_dense_oracles(case):
    S, M = DENSE_ORACLE_CASES[case]()
    for n in range(5):
        assert_level_matches_dense_oracles(S, M, n)


@pytest.mark.parametrize("case", DENSE_ORACLE_CASES)
def test_identity_reports_match_dense_oracle(case):
    S, M = DENSE_ORACLE_CASES[case]()
    for n in range(5):
        rep = cocyclic.check_cyclic_identities(S, M, n)
        assert rep == oracles.dense_cyclic_identities(S, M, n), n


@st.composite
def cyclic_cases(draw, reach, cap):
    """A validated comodule algebra S and AYD-type coefficients M over one
    Hopf algebra H, and a level n in 0..3, lowered until level n + reach
    has dimension at most cap.

    H is the group algebra of a random group table over Q or F_p, its
    dual, Sweedler's algebra or Taft 3 over F_7.  S is H's regular
    comodule algebra, or k[t]/(t^m) with the trivial coaction or, over a
    group algebra, the random grading deg t^i = g^i.  M is H's regular
    comodule with the trivial action, the regular action (the swap on
    kC_2), or one dimension with the trivial action and coaction."""
    kind = draw(st.sampled_from(["group", "dual", "sweedler", "taft3"]))
    if kind == "sweedler":
        h = hopf.sweedler(QQ)
    elif kind == "taft3":
        h = hopf.taft(GF(7), 3, 2)
    else:
        table = relabelled_table(draw, zoo.GROUP_TABLES)
        h = hopf.group_algebra(draw(st.sampled_from([QQ, GF(2), GF(5)])), table)
        h = hopf.dual(h) if kind == "dual" else h
    dom = h.domain
    s_kind = draw(st.sampled_from(["regular", "trivial"] + ["graded"] * (kind == "group")))
    if s_kind == "regular":
        S = cocyclic.ComoduleAlgebraData(h.algebra, cocyclic.regular_comodule(h))
    else:
        m = draw(st.integers(2, 3))
        alg = hopf.algebra_from_triples(dom, m, [f"t{i}" for i in range(m)], [
            (i, j, i + j, 1) for i in range(m) for j in range(m) if i + j < m
        ], linalg.unit_vec(dom, m, 0))
        if s_kind == "trivial":
            triples = [(i, i, a, u) for i in range(m) for a, u in enumerate(h.algebra.unit)]
        else:
            g, degrees = draw(st.integers(0, h.dim - 1)), [0]
            for _ in range(m - 1):
                degrees.append(table[degrees[-1]][g])
            triples = [(i, i, degrees[i], 1) for i in range(m)]
        S = cocyclic.comodule_algebra(h, alg, triples)
    m_kind = draw(st.sampled_from(["trivial", "regular", "one"]))
    if m_kind == "one":
        action = hopf.sparse_tensor(
            dom, (h.dim, 1, 1), [(a, 0, 0, e) for a, e in enumerate(h.counit)], 2)
        M = cocyclic.AydModuleData(cocyclic.trivial_comodule(h, 1), action)
    else:
        M = zoo.group_like_ayd(h, action=m_kind)
    n = draw(st.integers(0, 3))
    while n and S.dim ** (n + reach + 1) * M.dim > cap:
        n -= 1
    assume(S.dim ** (n + reach + 1) * M.dim <= cap)
    return S, M, n


def sweedler_regular():
    """Sweedler's algebra over itself, with the regular action: the legs of
    its tensor powers do not commute, nor do they act commutingly."""
    sw = hopf.sweedler(QQ)
    return (cocyclic.ComoduleAlgebraData(sw.algebra, cocyclic.regular_comodule(sw)),
            zoo.group_like_ayd(sw, action="regular"))


# t_n^(n+1) equals its closed form on the whole level, not only on the
# cotensor: in noncommutative H (Sweedler, Taft 3, S3, D4, Q8) the legs of
# X = S^(x)(n+1) must multiply in slot order for it to hold.
@given(cyclic_cases(reach=0, cap=512))
@example((*sweedler_regular(), 2))
@settings(max_examples=40, deadline=None)
def test_closed_form_of_t_to_the_n_plus_1_matches_dense_compositions(case):
    S, M, n = case
    dom, dim = S.domain, S.dim ** (n + 1) * M.dim
    t = oracles.dense_cyclic_matrix(S, M, n)
    power = Matrix.identity(dom, dim)
    for _ in range(n + 1):
        power = t @ power
    X = cocyclic.tensor_power(S.comodule, n + 1)
    closed = ColumnMap(dom, dim, [cocyclic.cyclic_power(X, M, col)
                                  for col in ColumnMap.identity(dom, dim).cols])
    assert closed.to_dense() == power


# The simplicial and rotation identities the report takes from the lemma:
# the full pair loops of the dense oracle pass on validated S and M, and the
# whole report, cyclicity and its witness included, is the oracle's.
@given(cyclic_cases(reach=2, cap=512))
@example((*sweedler_regular(), 1))
@settings(max_examples=25, deadline=None)
def test_full_identity_loops_pass_on_validated_data(case):
    S, M, n = case
    expected = oracles.dense_cyclic_identities(S, M, n)
    assert expected.simplicial_ok and expected.rotation_ok, expected.simplicial_witness
    assert cocyclic.check_cyclic_identities(S, M, n) == expected


def with_column_replaced(t, level, n, k, row):
    """t with column k set to e_row when it is the operator of `level`."""
    if n != level:
        return t
    cols = list(t.cols)
    cols[k] = ((row, t.domain.one),)
    return ColumnMap(t.domain, t.nrows, cols)


# The lemma and the closed form hold only for a t built by its formula, so
# the report reads t only where it decides that t maps the cotensor into
# itself.  With one column of t corrupted, that verdict must still be the
# dense oracle's, level by level.
@given(st.sampled_from(["ayd", "swap", "not-strongly-graded"]), st.sampled_from([2, 3]),
       st.data())
@settings(max_examples=12)
def test_corrupted_cyclic_operator_witnesses_match_dense_oracle(case, level, data):
    S, M = DENSE_ORACLE_CASES[case]()
    dim = S.dim ** (level + 1) * M.dim
    k, row = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    sparse, dense = cocyclic.cyclic_matrix, oracles.dense_cyclic_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocyclic, "cyclic_matrix",
                   lambda S, M, n: with_column_replaced(sparse(S, M, n), level, n, k, row))
        mp.setattr(oracles, "dense_cyclic_matrix", lambda S, M, n: with_column_replaced(
            ColumnMap.from_dense(dense(S, M, n)), level, n, k, row).to_dense())
        for n in range(5):
            rep = cocyclic.check_cyclic_identities(S, M, n)
            expected = oracles.dense_cyclic_identities(S, M, n)
            assert rep.t_preserves_cotensor == expected.t_preserves_cotensor, n
            assert (rep.dim, rep.cotensor_dim) == (expected.dim, expected.cotensor_dim), n


@pytest.mark.parametrize("case", [*DENSE_ORACLE_CASES, "sweedler"])
def test_cotensor_matches_dense_oracle(case):
    # Sweedler's comodules have multi-term coactions, and its level 3
    # system (4096 x 1024) is past a dense elimination in this suite
    if case == "sweedler":
        sw = hopf.sweedler(QQ)
        S, M, top = cocyclic.regular_comodule(sw), cocyclic.regular_comodule(sw), 2
    else:
        S, M = DENSE_ORACLE_CASES[case]()
        S, M, top = S.comodule, M.comodule, 5
    power = S
    for n in range(top + 1):
        if n:
            power = cocyclic.tensor_comodule(power, S)
        assert power == oracles.tensor_power_comodule(S, n + 1), n
        basis = cocyclic.cotensor(power, M)
        assert tuple(basis.to_dense().cols()) == oracles.dense_cotensor(power, M), n


@st.composite
def cotensor_cases(draw):
    """The tensor factors of X and the comodule M, over one Hopf algebra:
    the group algebra of a random group table over Q or F_p (random
    gradings, the regular and the trivial comodules), its dual, Sweedler's
    algebra or Taft 3 over F_7 (the regular and the trivial comodules; the
    regular coactions of the last two have several terms)."""
    kind = draw(st.sampled_from(["group", "dual", "sweedler", "taft3"]))
    if kind == "sweedler":
        h = hopf.sweedler(QQ)
    elif kind == "taft3":
        h = hopf.taft(GF(7), 3, 2)
    else:
        h = hopf.group_algebra(draw(st.sampled_from([QQ, GF(2), GF(5)])),
                               relabelled_table(draw, zoo.GROUP_TABLES))
        h = hopf.dual(h) if kind == "dual" else h
    comodules = [cocyclic.regular_comodule(h), cocyclic.trivial_comodule(h, draw(st.integers(1, 2)))]
    if kind == "group":
        degrees = draw(st.lists(st.integers(0, h.dim - 1), min_size=1, max_size=3))
        comodules.append(cocyclic.comodule_from_triples(
            h, len(degrees), [(m, m, g, 1) for m, g in enumerate(degrees)]))
    pick = st.sampled_from(comodules)
    factors, m = [draw(pick)], draw(pick)
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(pick)
        if math.prod(f.dim for f in factors) * factor.dim * m.dim * h.dim <= 600:
            factors.append(factor)
    return factors, m


# The cotensor system leaves out the row block of one h with counit(e_h) != 0;
# the kernel must still be the one of the full system, with several-term
# coactions and with counit(e_h) = 0 on part of the basis (Sweedler, Taft).
@given(cotensor_cases())
@example(([cocyclic.regular_comodule(hopf.sweedler(QQ))] * 2,
          cocyclic.regular_comodule(hopf.sweedler(QQ))))
@example(([cocyclic.regular_comodule(hopf.taft(GF(7), 3, 2))],
          cocyclic.trivial_comodule(hopf.taft(GF(7), 3, 2), 1)))
@settings(max_examples=40, deadline=None)
def test_cotensor_of_random_comodules_matches_dense_oracle(case):
    factors, m = case
    x = reference = factors[0]
    for factor in factors[1:]:
        x, reference = cocyclic.tensor_comodule(x, factor), oracles.tensor_comodule(reference, factor)
        assert x == reference
    assert tuple(cocyclic.cotensor(x, m).to_dense().cols()) == oracles.dense_cotensor(x, m)


# A comodule keeps the last tensor power it built and starts higher ones from
# it; each must be the power rebuilt from C, whatever order they are read in.
@given(cotensor_cases(), st.permutations(range(1, 6)))
@example(([cocyclic.regular_comodule(hopf.sweedler(QQ))], None), [4, 1, 3, 2, 5])
@example(([cocyclic.regular_comodule(hopf.taft(GF(7), 3, 2))], None), [2, 1, 3])
@settings(max_examples=30, deadline=None)
def test_tensor_powers_read_in_any_order_match_the_oracle(case, order):
    c = case[0][0]  # the first tensor factor of a cotensor case
    for k in order:
        if c.dim ** k <= 256:
            assert cocyclic.tensor_power(c, k) == oracles.tensor_power_comodule(c, k), k


def test_multi_term_operators_match_dense_oracles():
    # Sweedler's regular coaction has two legs on x, so t and d_n have
    # columns with several entries, some of which d_n sums to one entry
    sw = hopf.sweedler(QQ)
    S = cocyclic.ComoduleAlgebraData(sw.algebra, cocyclic.regular_comodule(sw))
    M = zoo.group_like_ayd(sw, action="regular")
    for n in range(3):
        assert_level_matches_dense_oracles(S, M, n)
    for n in range(2):
        assert cocyclic.check_cyclic_identities(S, M, n) == oracles.dense_cyclic_identities(S, M, n)


def test_t_complex_differential_squares_to_zero():
    tc = cocyclic.t_complex(graded(3), ayd_trivial(3), 3)
    assert tc.dims == (4, 8, 16, 32)  # b.b = 0 enforced by the constructor
    assert tc.homology_dims() == dense_homology_dims(tc) == (4, 0, 0)
    # not strongly graded: homology in every degree below the top
    tc = cocyclic.t_complex(graded(3, False), ayd_trivial(3), 3)
    assert tc.homology_dims() == dense_homology_dims(tc) == (4, 2, 2)


def dense_homology_dims(cx):
    """dim ker b_k - dim im b_{k+1} from dense kernels and dense RREFs."""
    b = [None] + [d.to_dense() for d in cx.differentials]
    kernels = [cx.dims[0]] + [len(oracles.dense_kernel_basis(d)) for d in b[1:]]
    return tuple(kernels[k] - len(oracles.dense_rref(b[k + 1])[1]) for k in range(cx.top))


def test_identities_over_noncommutative_base():
    # the simplicial and rotation relations hold unconditionally, also
    # over a noncommutative non-cocommutative comodule algebra
    sw = hopf.sweedler(QQ)
    S = cocyclic.ComoduleAlgebraData(sw.algebra, cocyclic.regular_comodule(sw))
    action = hopf.sparse_tensor(
        QQ, (4, 2, 2), [(a, m, m, sw.counit[a]) for a in range(4) for m in range(2)], 2
    )
    M = cocyclic.AydModuleData(cocyclic.trivial_comodule(sw, 2), action)
    for n in range(2):
        rep = cocyclic.check_cyclic_identities(S, M, n)
        assert rep.simplicial_ok and rep.rotation_ok, n


# bar construction -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gaussian():
    return zoo.gaussian_extension()


def regular_s_action(alg):
    return tuple(tuple(alg.mult[s][m] for m in range(alg.dim)) for s in range(alg.dim))


def test_bar_dims_and_h0():
    S = gaussian().algebra
    bar = cocyclic.bar_complex(S, regular_s_action(S), 4)
    assert bar.dims == (2, 4, 8, 16, 32)
    # b_1(s (x) m) = -s m is surjective, so H_0 = 0
    assert linalg.rank(bar.differential(1)) == 2
    assert bar.homology_dims()[0] == 0


def test_bar_free_module_is_acyclic():
    S = gaussian().algebra
    bar = cocyclic.bar_complex(S, regular_s_action(S), 5)
    assert all(h == 0 for h in bar.homology_dims())


def test_bar_differential_signs():
    # b_1 = -d_1: the single face is the action with a sign
    S = gaussian().algebra
    bar = cocyclic.bar_complex(S, regular_s_action(S), 1)
    unit = [linalg.unit_vec(QQ, 2, k) for k in range(2)]
    act = Matrix.from_cols(QQ, [S.mul_vec(unit[s], unit[m]) for s in range(2) for m in range(2)], 2)
    assert bar.differential(1).to_dense() == -act


def test_bar_differentials_match_dense_oracle():
    S = gaussian().algebra
    s_action = regular_s_action(S)
    act = ColumnMap(QQ, 2, [cell for block in s_action for cell in block]).to_dense()
    mult = ColumnMap(QQ, 2, [cell for row in S.mult for cell in row]).to_dense()
    bar = cocyclic.bar_complex(S, s_action, 4)
    for n in range(1, 5):
        faces = [oracles.dense_on_slot(QQ, 2 ** (i - 1), mult, 2 ** (n - 1 - i) * 2)
                 for i in range(1, n)] + [oracles.dense_on_slot(QQ, 2 ** (n - 1), act, 1)]
        signs = [(-1) ** i for i in range(1, n + 1)]
        dense = oracles.combination(QQ, signs, faces, faces[0].nrows, faces[0].ncols)
        assert bar.differential(n).to_dense() == dense
    assert bar.homology_dims() == dense_homology_dims(bar)


# shifts ---------------------------------------------------------------------------


def test_bar_shift_three_coefficient_modules():
    d = gaussian()
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
        assert rep.dim_module == 2 * rep.dim_fixed, name
        assert all(rep.differential_compat), name


def test_bar_shift_dims_table():
    d = gaussian()
    sm = actions.smash(d)
    rep = cocyclic.bar_shift_check(d, actions.regular_smash_module(sm), 4)
    assert rep.dims_module == (4, 8, 16, 32, 64)
    assert rep.dims_fixed == (4, 8, 16, 32, 64)


# Each complex is bounded degree by degree, B(S, M) first over all degrees;
# with a Morita map that is not bijective, B(S, M^H) can pass the bound first.
@pytest.mark.parametrize("dims, bound, refusals", [
    ((6, 3), 40, {2: None, 3: "3 of B(S, M) has dimension 48", 10 ** 8: "3 of B(S, M) has dimension 48"}),
    ((1, 4), 16, {1: None, 2: "3 of B(S, M^H) has dimension 32", 4: "3 of B(S, M^H) has dimension 32",
                  10 ** 8: "5 of B(S, M) has dimension 32"}),
])
def test_bar_shift_refuses_at_the_first_degree_past_the_bound(monkeypatch, dims, bound, refusals):
    d = gaussian()  # dim S = 2
    morita = actions.MoritaReport(None, False, *dims, ())
    monkeypatch.setattr(actions, "morita_decomposition", lambda module: morita)
    for top, refusal in refusals.items():
        if refusal is None:
            assert cocyclic.bar_shift_check(d, None, top, bound).top == top
            continue
        with pytest.raises(ResourceBoundError, match=re.escape(f"bar degree {refusal} > bound {bound}")):
            cocyclic.bar_shift_check(d, None, top, bound)


def test_bar_shift_precondition():
    d = zoo.gaussian_trivial_extension()
    sm = actions.smash(d)
    with pytest.raises(PreconditionError):
        cocyclic.bar_shift_check(d, actions.regular_smash_module(sm), 2)


GALOIS_EXTENSIONS = sorted(
    name for name, d in zoo.extension_registry().items() if actions.galois_map_j(d).bijective
)


@functools.lru_cache(maxsize=None)
def registry_smash(name):
    d = zoo.extension_registry()[name]
    return d, actions.smash(d)


def rebased_smash_module(module, P):
    """The module in the basis of P's columns: each action matrix A becomes
    P^-1 A P, and the result enters through the validating constructor."""
    dom = module.domain
    P_inv, _ = oracles.dense_inverse(P)
    entries = (
        (a, m, t, c)
        for a, A in enumerate(oracles.dense_action_matrices(dom, module.action, module.dim))
        for m, col in enumerate((P_inv @ A @ P).cols())
        for t, c in enumerate(col) if c
    )
    action = hopf.sparse_tensor(dom, (module.smash.dim, module.dim, module.dim), entries, 2)
    return actions.smash_module(module.smash, module.dim, action)


@given(
    st.sampled_from(GALOIS_EXTENSIONS),
    st.lists(st.sampled_from(["regular", "algebra"]), min_size=1, max_size=3),
    st.integers(0, 4),
    st.data(),
)
@example("gaussian", ["algebra", "regular"], 4, None)
def test_bar_shift_compat_oracle_holds_where_morita_is_bijective(name, parts, top, data):
    # the degreewise compatibility, built out, holds in every degree exactly
    # where bar_shift_check takes it from the Morita lemma
    d, sm = registry_smash(name)
    build = {"regular": actions.regular_smash_module, "algebra": actions.algebra_smash_module}
    module = build[parts[0]](sm)
    for part in parts[1:]:
        module = actions.direct_sum_smash_modules(module, build[part](sm))
    if data is not None:
        # a random basis P = L U, with L and U unit triangular, mixes the summands
        n, dom = module.dim, module.domain
        draw = [dom.normalize(data.draw(st.integers(-2, 2))) for _ in range(n * n)]
        L = Matrix(dom, [[draw[i * n + j] if j < i else dom.one if j == i else dom.zero
                          for j in range(n)] for i in range(n)])
        U = Matrix(dom, [[draw[i * n + j] if j > i else dom.one if j == i else dom.zero
                          for j in range(n)] for i in range(n)])
        module = rebased_smash_module(module, L @ U)
    rep = cocyclic.bar_shift_check(d, module, top)
    compat = oracles.bar_shift_compat(d, module, top)
    if rep.morita_bijective:
        assert compat == [True] * top
    assert rep.differential_compat == tuple(compat)


def test_t_shift_strongly_graded():
    for p in (3, 2):
        S = graded(p)
        relS = cocyclic.algebra_as_relative_module(S)
        rep = cocyclic.t_shift_check(relS, 3)
        assert rep.gamma_bijective
        assert rep.coinvariants_base
        assert rep.evaluation_bijective
        assert rep.dims_match
        relV = cocyclic.cofree_relative_module(S, 2)
        rep2 = cocyclic.t_shift_check(relV, 2)
        assert rep2.evaluation_bijective and rep2.dims_match


def test_t_shift_refusal_names_the_level():
    rel = cocyclic.algebra_as_relative_module(graded(3))
    with pytest.raises(ResourceBoundError, match=r"^T-level 3 of T\(S, M\) has dimension 32 > bound 16$"):
        cocyclic.t_shift_check(rel, 3, max_dim=16)


def test_t_shift_rejects_non_strongly_graded():
    S0 = graded(3, strongly=False)
    with pytest.raises(PreconditionError):
        cocyclic.t_shift_check(cocyclic.algebra_as_relative_module(S0), 2)


def test_gamma_comodule_matrix_rank():
    g = cocyclic.galois_map_gamma_comodule(graded(3, strongly=False))
    assert g.rank == 3 and not g.bijective
    g2 = cocyclic.galois_map_gamma_comodule(graded(3))
    assert g2.bijective


def dictionary_module_algebra(S):
    """The dual(H)-module algebra that the dictionary makes of a comodule algebra."""
    dual_h, action = cocyclic.comodule_to_module(S.comodule)
    return actions.ModuleAlgebraData(dual_h, S.algebra, action)


@st.composite
def galois_cases(draw):
    """A module algebra and the comodule algebra the dictionary relates to
    it: a registry extension and its image, or a comodule algebra graded
    by C_m, S = k[t]/(t^n) or k C_n, and the k^(C_m)-module algebra it
    gives."""
    if draw(st.booleans()):
        d = extension(draw(st.sampled_from(sorted(zoo.extension_registry()))))
        return d, cocyclic.module_algebra_to_comodule_algebra(d)
    h, alg, triples = draw(graded_algebras())
    S = cocyclic.ComoduleAlgebraData(alg, cocyclic._comodule(h, alg.dim, triples))
    assume(oracles.comodule_algebra_witness(S) is None)
    return dictionary_module_algebra(S), S


@functools.lru_cache(maxsize=None)
def extension(name):
    return zoo.extension_registry()[name]


# the regular comodule algebra of Sweedler's algebra: multi-leg coactions, dim S = dim H
@example((dictionary_module_algebra(COMODULE_ALGEBRAS["sweedler-regular"]),
          COMODULE_ALGEBRAS["sweedler-regular"]))
@given(galois_cases())
def test_galois_maps_and_faithfulness_match_their_dense_oracles(case):
    d, S = case
    for galois, dense in (
        (actions.galois_map_j(d), oracles.dense_galois_j(d)),
        (actions.galois_map_gamma(d), oracles.dense_gamma(d)),
        (cocyclic.galois_map_gamma_comodule(S), oracles.dense_gamma(S)),
    ):
        assert galois.matrix.to_dense() == dense
        assert galois.rank == len(oracles.dense_rref(dense)[1])
    assert actions.is_faithful(d) == oracles.dense_faithful(d)


# converted module algebras ---------------------------------------------------------


def test_module_algebra_converts_to_comodule_algebra():
    d = zoo.graded_line_module_algebra(3)
    S = cocyclic.module_algebra_to_comodule_algebra(d)
    assert S.hopf.algebra.mult == hopf.dual(d.hopf).algebra.mult
    assert cocyclic.galois_map_gamma_comodule(S).bijective
