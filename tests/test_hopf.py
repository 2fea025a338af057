import collections
import functools
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfgal import actions, hopf, linalg, zoo
from hopfgal.errors import AxiomError, FormatError, UnsupportedDomainError
from hopfgal.linalg import GF, QQ, ZZ, ColumnMap, Matrix
from hopfgal.reporting import CheckResult, VerificationReport

import oracles

# The builtin cases by name.  Tests are parametrized by these names and build
# the cases they read, so a builtin whose build raises fails those tests, not
# the collection of the module.  "dual(NAME)" and "NAME*" name the dual of NAME.
BUILTINS = {
    "QC2": zoo.qc2,
    "F2C2": lambda: zoo.fpc2(2),
    "C3(F7)": lambda: hopf.group_algebra(GF(7), zoo.cyclic_table(3)),
    "C6(F5)": lambda: hopf.group_algebra(GF(5), zoo.cyclic_table(6)),
    "S3(Q)": lambda: hopf.group_algebra(QQ, zoo.GROUP_TABLES["S3"]),
    "Q8(F3)": lambda: hopf.group_algebra(GF(3), zoo.GROUP_TABLES["Q8"]),
    "sweedler(Q)": lambda: hopf.sweedler(QQ),
    "sweedler(F5)": lambda: hopf.sweedler(GF(5)),
    "taft(3,2,F7)": lambda: hopf.taft(GF(7), 3, 2),
    "taft(4,2,F5)": lambda: hopf.taft(GF(5), 4, 2),
    "divided-power(F2)": zoo.divided_power_hopf,
}


@functools.lru_cache(maxsize=None)
def builtin(name):
    """The Hopf algebra a case name names, built on first read."""
    if name.endswith("*"):
        return hopf.dual(builtin(name[:-1]))
    if name.startswith("dual("):
        return hopf.dual(builtin(name[len("dual("):-1]))
    return BUILTINS[name]()


def with_duals(names):
    return tuple(case for name in names for case in (name, f"{name}*"))


ZOO = ("QC2", "F2C2", "dual(QC2)", "sweedler(Q)", "sweedler(F5)", "taft(3,2,F7)")
# every builtin and its dual
ANTIPODE_BUILTINS = ("QC2", "F2C2", "C3(F7)", "sweedler(Q)", "sweedler(F5)", "taft(3,2,F7)",
                     "taft(4,2,F5)", "divided-power(F2)")
ANTIPODE_CASES = ANTIPODE_BUILTINS + tuple(f"dual({name})" for name in ANTIPODE_BUILTINS)
ZOO_AND_DUALS = with_duals(ZOO)
# every builtin and its dual, over Q and F_p
INTEGRAL_CASES = ZOO_AND_DUALS + with_duals(("taft(4,2,F5)", "S3(Q)", "Q8(F3)"))
REDUCTION_CASES = ("sweedler(Q)", "taft(3,2,F7)", "C6(F5)")


# verification -----------------------------------------------------------------


def test_group_algebra_verifies():
    assert hopf.verify_hopf(zoo.qc2()).passed


def test_sweedler_verifies_by_axiom_scan():
    report = hopf.verify_hopf(hopf.sweedler(QQ))
    assert [c.name for c in report.checks] == [
        "associativity",
        "unit",
        "coassociativity",
        "counit",
        "bialgebra",
        "antipode",
    ]
    assert report.passed


def test_corrupted_antipode_witnessed_at_x():
    sw = hopf.sweedler(QQ)
    cols = [sw.antipode.col(j) for j in range(4)]
    cols[2] = tuple(-v for v in cols[2])  # flip alpha(x) = -gx to gx
    bad = hopf.HopfAlgebraData(sw.algebra, sw.comult, sw.counit, ColumnMap.from_cols(QQ, 4, cols))
    report = hopf.verify_hopf(bad)
    assert not report.passed
    failures = report.failures()
    assert [c.name for c in failures] == ["antipode"]
    assert failures[0].witness == (2,)  # basis index of x


def test_hand_checked_sweedler_relations():
    # direct substitution oracle: mu (alpha (x) id) Delta(x) must be 0
    sw = hopf.sweedler(QQ)
    # Delta(x) = x (x) 1 + g (x) x; alpha(x) = -gx, alpha(g) = g
    assert sw.comult[2] == ((1, 2, Fraction(1)), (2, 0, Fraction(1)))
    assert sw.antipode.col(2) == (0, 0, 0, Fraction(-1))
    left = sw.algebra.mul_vec(sw.antipode.col(2), (1, 0, 0, 0))
    right = sw.algebra.mul_vec(sw.antipode.col(1), (0, 0, 1, 0))
    total = tuple(a + b for a, b in zip(left, right))
    assert total == (0, 0, 0, 0)


def with_antipode_column_corrupted(h, j):
    """h with 1 added to the entry of its antipode at row j + 1 (mod dim) of column j."""
    dom, n = h.domain, h.dim
    cols = [list(h.antipode.col(k)) for k in range(n)]
    cols[j][(j + 1) % n] = dom.add(cols[j][(j + 1) % n], dom.one)
    return hopf.HopfAlgebraData(h.algebra, h.comult, h.counit, ColumnMap.from_cols(dom, n, cols))


def antipode_check(h):
    return next(c for c in hopf.verify_hopf(h).checks if c.name == "antipode")


@pytest.mark.parametrize("name", ANTIPODE_CASES)
def test_antipode_witness_matches_dense_oracle(name):
    h = builtin(name)
    check = antipode_check(h)
    assert check.passed and oracles.dense_antipode_witness(h) is None
    for j in range(h.dim):
        bad = with_antipode_column_corrupted(h, j)
        check = antipode_check(bad)
        assert not check.passed, j
        assert check.witness == oracles.dense_antipode_witness(bad), j


# builtins ----------------------------------------------------------------------


def test_group_algebra_rejects_non_group():
    with pytest.raises(AxiomError):
        hopf.group_algebra(QQ, [[0, 1], [0, 1]])


def test_group_algebra_c3_over_f2_semisimple():
    # counit of the integral 1 + g + g^2 is 3 = 1 in F2
    h = hopf.group_algebra(GF(2), zoo.cyclic_table(3))
    integral = hopf.left_integrals(h).basis[0]
    assert integral == (1, 1, 1)
    assert h.counit_vec(integral) == 1
    assert hopf.is_semisimple(h)


def test_sweedler_char2_rejected():
    with pytest.raises(UnsupportedDomainError):
        hopf.sweedler(GF(2))


def test_taft_matches_sweedler():
    sw = hopf.sweedler(QQ)
    t = hopf.taft(QQ, 2, -1, labels=sw.labels)
    assert t.algebra.mult == sw.algebra.mult
    assert t.comult == sw.comult
    assert t.counit == sw.counit
    assert t.antipode == sw.antipode


def test_taft_3_2_f7():
    # oracle: 2^3 = 8 = 1 mod 7 while 2, 4 != 1, so 2 is a primitive cube root
    assert pow(2, 3, 7) == 1 and pow(2, 1, 7) != 1 and pow(2, 2, 7) != 1
    t = builtin("taft(3,2,F7)")
    assert t.dim == 9
    assert hopf.verify_hopf(t).passed


def taft_comult_in_dense_square(h, n):
    """Delta of the Taft monomials g^a x^b, multiplied out in the full H (x) H table.

    Each Delta is returned as its (j, k, c) triples in flattened order.
    """
    dom, dim = h.domain, h.dim
    square = oracles.tensor_square_algebra(h.algebra)

    def flat(*pairs):
        vec = [dom.zero] * (dim * dim)
        for u, v in pairs:
            vec[u * dim + v] = dom.one
        return tuple(vec)

    g, x = 1, n  # basis index b*n + a of g^a x^b
    delta_g, delta_x = flat((g, g)), flat((x, 0), (g, x))
    comult = [None] * dim
    for a in range(n):
        for b in range(n):
            vec = square.unit
            for _ in range(a):
                vec = oracles.dense_product(square, vec, delta_g)
            for _ in range(b):
                vec = oracles.dense_product(square, vec, delta_x)
            comult[b * n + a] = tuple(
                divmod(p, dim) + (c,) for p, c in enumerate(vec) if c != dom.zero
            )
    return tuple(comult)


def primitive_roots(p, n):
    """The q mod p of multiplicative order exactly n."""
    return [
        q for q in range(2, p)
        if pow(q, n, p) == 1 and all(pow(q, k, p) != 1 for k in range(1, n))
    ]


TAFT_CASES = (
    [(QQ, 2, -1)]
    + [(GF(p), n, q) for p, n in [(5, 2), (7, 3), (5, 4), (13, 4)] for q in primitive_roots(p, n)]
)


@pytest.mark.parametrize("domain,n,q", TAFT_CASES, ids=lambda v: str(v))
def test_taft_comult_matches_dense_tensor_square(domain, n, q):
    h = hopf.taft(domain, n, q)
    assert h.comult == taft_comult_in_dense_square(h, n)


# every primitive n-th root q mod p, 2 <= n <= 8 with n | p - 1, for six
# primes, and Sweedler's algebra over Q and over Z
TAFT_PRODUCT_CASES = (
    [(GF(p), n, q) for p in (5, 7, 13, 17, 29, 97) for n in range(2, 9) if (p - 1) % n == 0
     for q in primitive_roots(p, n)]
    + [(QQ, 2, -1), (ZZ, 2, -1)]
)


def test_taft_product_cases_cover_42_roots():
    assert len(TAFT_PRODUCT_CASES) == 42 + 2
    # no p - 1 of the six is divisible by 5
    assert {n for _, n, _ in TAFT_PRODUCT_CASES} == {2, 3, 4, 6, 7, 8}


@pytest.mark.parametrize("domain,n,q", TAFT_PRODUCT_CASES, ids=lambda v: str(v))
def test_taft_closed_forms_match_the_products(domain, n, q):
    # the q-binomial comult and the one-term antipode against Delta and
    # alpha multiplied out from the generators, cell for cell
    h = hopf.taft(domain, n, q)
    comult, antipode = oracles.taft_by_products(domain, n, q)
    assert h.comult == comult
    assert h.antipode.cols == antipode


@pytest.mark.parametrize("domain,n,q", TAFT_PRODUCT_CASES, ids=lambda v: str(v))
def test_taft_mult_matches_the_presentation(domain, n, q):
    # the closed-form product against words in g and x reduced by
    # g^n = 1, x^n = 0 and xg = q gx, cell for cell
    assert hopf.taft(domain, n, q).algebra.mult == oracles.taft_mult_by_relations(domain, n, q)


@pytest.mark.parametrize("domain,n,q", TAFT_PRODUCT_CASES, ids=lambda v: str(v))
def test_g_and_x_generate_the_taft_algebra(domain, n, q):
    # `taft` takes (1, n), the indices of g and x, as its generating set
    # over a field without a search: their words span all n^2 dimensions
    alg = hopf.taft(domain, n, q).algebra
    assert oracles.word_span_dim(alg, (1, n)) == n * n
    if domain.is_field:
        assert alg.generators == (1, n) == hopf.generating_set(domain, alg.mult, alg.unit)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: hopf.taft(GF(13), 4, 5), id="taft"),
    pytest.param(lambda: hopf.group_algebra(QQ, zoo.cyclic_table(3)), id="group"),
    pytest.param(lambda: hopf.dual(hopf.taft(GF(7), 3, 2)), id="dual-taft"),
])
def test_dual_of_a_dual_takes_the_tensors_themselves(build):
    h = build()
    dd = hopf.dual(hopf.dual(h))
    assert dd.algebra.mult is h.algebra.mult
    assert dd.comult is h.comult
    # otherwise a dual's tensors are the transpositions, kept from the first read
    d = hopf.dual(h)
    assert d.algebra.mult == hopf.dual_mult(h)
    assert d.comult == hopf.dual_comult(h)
    assert d.algebra.mult is d.algebra.mult


@pytest.mark.parametrize("p,n,q", [(11, 5, 3), (13, 6, 4)])
def test_taft_scales_past_dimension_16(p, n, q):
    assert primitive_roots(p, n)[0] == q
    h = hopf.taft(GF(p), n, q)
    assert h.dim == n * n
    assert hopf.verify_hopf(h).passed


@pytest.mark.parametrize("domain,n,q", [(QQ, 2, -1), (GF(3), 2, 2), (GF(7), 3, 2), (GF(5), 4, 2),
                                         (GF(11), 5, 3), (GF(7), 6, 3)], ids=lambda v: str(v))
def test_taft_and_dual_tensors_are_what_sparse_tensor_makes(domain, n, q):
    # taft builds its mult cells, and dual transposes H's tensors, without
    # passing their own entries through sparse_tensor; the results must be
    # the canonical tensors that sparse_tensor makes of the same entries
    h = hopf.taft(domain, n, q)
    dim, q = n * n, domain.normalize(q)
    shape = (dim, dim, dim)

    def idx(a, b):
        return b * n + a

    def power(k):
        return functools.reduce(domain.mul, [q] * k, domain.one)

    # (g^a x^b)(g^c x^d) = q^(bc) g^(a+c) x^(b+d), zero once b + d >= n
    assert h.algebra.mult == hopf.sparse_tensor(domain, shape, [
        (idx(a, b), idx(c, d), idx((a + c) % n, b + d), power(b * c))
        for a, b, c, d in itertools.product(range(n), repeat=4) if b + d < n
    ], 2)
    for x in (h, hopf.dual(h)):
        d = hopf.dual(x)
        assert d.algebra.mult == hopf.sparse_tensor(domain, shape, [
            (i, j, k, c) for k, g in enumerate(x.comult) for i, j, c in g], 2)
        assert d.comult == hopf.sparse_tensor(domain, shape, [
            (i, j, k, c) for j, row in enumerate(x.algebra.mult)
            for k, cell in enumerate(row) for i, c in cell], 1)
    assert hopf.dual(hopf.dual(h)).algebra.mult == h.algebra.mult
    # the antipode columns are closed forms; the dense products must agree
    assert h.antipode == ColumnMap.from_cols(domain, dim, oracles.dense_taft_antipode(h, n))


def canonical_reference(domain, shape, entries, lead):
    """The canonical form read cell by cell off the dense reference tensor."""
    dense = oracles.dense_tensor_from_triples(domain, shape, entries)

    def value(idx):
        cell = dense
        for i in idx:
            cell = cell[i]
        return cell

    def build(prefix):
        if len(prefix) == lead:
            rest = itertools.product(*(range(n) for n in shape[lead:]))
            return tuple(
                idx + (value(prefix + idx),) for idx in rest if value(prefix + idx) != domain.zero
            )
        return tuple(build(prefix + (i,)) for i in range(shape[len(prefix)]))

    return build(())


@st.composite
def tensor_inputs(draw):
    """Entry lists with indices up to one past each axis, some repeated negated."""
    domain = draw(st.sampled_from([QQ, GF(5)]))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    lead = draw(st.integers(1, len(shape) - 1))
    index = st.tuples(*(st.one_of(st.integers(0, n - 1), st.just(n)) for n in shape))
    coeff = st.fractions(-2, 2, max_denominator=3)
    entries = draw(st.lists(st.tuples(index, coeff).map(lambda e: e[0] + (e[1],)), max_size=8))
    if entries:
        cancel = draw(st.lists(st.sampled_from(entries), max_size=3))
        entries += [e[:-1] + (-e[-1],) for e in cancel]
    return domain, shape, lead, entries


def _built_or_error(build, *args):
    try:
        return build(*args)
    except FormatError as exc:
        return str(exc)


@given(tensor_inputs())
@example((QQ, (2, 2, 2), 2, [(0, 1, 1, 1), (0, 1, 1, Fraction(1, 2)), (1, 0, 0, 1)]))
@example((GF(5), (2, 2, 2), 1, [(1, 0, 1, 2), (0, 0, 0, 1), (1, 0, 1, 3)]))
@example((QQ, (2, 3, 2), 2, [(0, 0, 0, 1), (2, 0, 0, 1)]))
@example((QQ, (2, 3, 2), 2, [(0, 3, 0, 1)]))
@example((GF(5), (2, 3, 2), 1, [(0, 0, 2, 1)]))
@example((QQ, (2, 2), 1, [(0, 1, 1), (0, 1)]))
@example((QQ, (2, 2), 1, [(0, True, 1), (0, "1", 1)]))
def test_sparse_tensor_matches_dense_reference(case):
    domain, shape, lead, entries = case
    expected = _built_or_error(canonical_reference, domain, shape, entries, lead)
    assert _built_or_error(hopf.sparse_tensor, domain, shape, entries, lead) == expected


def test_sparse_tensor_sums_repeats_and_drops_zeros():
    entries = [(0, 1, 1, 1), (0, 1, 0, 3), (0, 1, 1, Fraction(1, 2)), (1, 0, 1, 2), (1, 0, 1, -2)]
    tensor = hopf.sparse_tensor(QQ, (2, 2, 2), entries, 2)
    assert tensor == (((), ((0, 3), (1, Fraction(3, 2)))), ((), ()))
    by_first = hopf.sparse_tensor(QQ, (2, 2, 2), entries, 1)
    assert by_first == (((1, 0, 3), (1, 1, Fraction(3, 2))), ())


@pytest.mark.parametrize("name", ZOO)
def test_sparse_views_match_dense_tensors(name):
    # each stored tensor equals the canonical form read off the dense tensor it encodes
    h = builtin(name)
    shape = (h.dim,) * 3
    for g in (h, hopf.dual(h)):
        mult = [
            (i, j, k, c)
            for i, row in enumerate(g.algebra.mult) for j, cell in enumerate(row) for k, c in cell
        ]
        assert g.algebra.mult == canonical_reference(h.domain, shape, mult, 2)
        comult = [(i, j, k, c) for i, cell in enumerate(g.comult) for j, k, c in cell]
        assert g.comult == canonical_reference(h.domain, shape, comult, 1)


def test_taft_rejects_non_primitive_root():
    with pytest.raises(AxiomError) as err:
        hopf.taft(QQ, 3, 1)
    assert err.value.witness == (1,)


# dual --------------------------------------------------------------------------


def test_dual_group_algebra_is_pointwise_product():
    d = hopf.dual(zoo.qc2())
    # transpose of Delta(g) = g (x) g by hand: delta_a delta_b = [a = b] delta_a
    for a in range(2):
        for b in range(2):
            expected = ((a, Fraction(1)),) if a == b else ()
            assert d.algebra.mult[a][b] == expected


def test_dual_is_involutive_on_builtins():
    for name in ZOO:
        h = builtin(name)
        dd = hopf.dual(hopf.dual(h))
        assert dd.algebra.mult == h.algebra.mult, name
        assert dd.algebra.unit == h.algebra.unit, name
        assert dd.comult == h.comult, name
        assert dd.counit == h.counit, name
        assert dd.antipode == h.antipode, name


def test_dual_needs_field():
    h = hopf.group_algebra(ZZ, zoo.cyclic_table(2))
    with pytest.raises(UnsupportedDomainError):
        hopf.dual(h)


# integrals ----------------------------------------------------------------------


def integral_property_oracle(h, vec, side):
    """Direct substitution of the defining identity on every basis element."""
    for a in range(h.dim):
        basis_a = tuple(h.domain.one if i == a else h.domain.zero for i in range(h.dim))
        if side == "left":
            prod = h.algebra.mul_vec(basis_a, vec)
        else:
            prod = h.algebra.mul_vec(vec, basis_a)
        scaled = tuple(h.domain.mul(h.counit[a], v) for v in vec)
        if tuple(prod) != scaled:
            return False
    return True


def test_qc2_integral_is_one_plus_sigma():
    h = zoo.qc2()
    left = hopf.left_integrals(h)
    assert left.basis == ((Fraction(1), Fraction(1)),)
    assert integral_property_oracle(h, left.basis[0], "left")


def test_sweedler_integral_is_x_plus_gx():
    h = hopf.sweedler(QQ)
    left = hopf.left_integrals(h)
    assert left.basis == ((0, 0, Fraction(1), Fraction(1)),)
    assert integral_property_oracle(h, left.basis[0], "left")
    right = hopf.right_integrals(h)
    assert integral_property_oracle(h, right.basis[0], "right")
    assert left.basis != right.basis  # sweedler is not unimodular


def test_dual_qc2_integral_is_delta_e():
    d = hopf.dual(zoo.qc2())
    assert hopf.left_integrals(d).basis == ((Fraction(1), Fraction(0)),)


def test_larson_sweedler_dimensions_across_builtins():
    for name in ZOO:
        h = builtin(name)
        assert hopf.left_integrals(h).dim == 1, name
        assert hopf.right_integrals(h).dim == 1, name


# actions as ColumnMaps against the dense builders ----------------------------------


def regular_actions(h):
    """H on itself: e_a . e_i = e_a e_i on the left, e_i e_a on the right."""
    n, mult = h.dim, h.algebra.mult
    return {"left": mult, "right": tuple(tuple(mult[i][a] for i in range(n)) for a in range(n))}


def trivial_action(h, dim):
    """e_a . v = counit(e_a) v on a space of dimension dim."""
    return tuple(
        tuple(((m, e),) if e else () for m in range(dim)) for e in h.counit
    )


@pytest.mark.parametrize("name", ZOO_AND_DUALS)
def test_fixed_points_and_integrals_match_dense_oracle(name):
    h = builtin(name)
    dom = h.domain
    for side, action in regular_actions(h).items():
        mult = oracles.left_mult_matrix if side == "left" else oracles.right_mult_matrix
        mats = oracles.dense_action_matrices(dom, action, h.dim)
        assert mats == [mult(h.algebra, linalg.unit_vec(dom, h.dim, a)) for a in range(h.dim)]
        dense = oracles.dense_integrals(h, side)
        assert hopf.fixed_points(h, action) == dense == oracles.dense_fixed_points(h, mats)
        space = hopf.left_integrals(h) if side == "left" else hopf.right_integrals(h)
        assert space.basis == dense
    for dim in (1, 3):
        action = trivial_action(h, dim)
        dense = oracles.dense_fixed_points(h, oracles.dense_action_matrices(dom, action, dim))
        assert hopf.fixed_points(h, action) == dense
        assert len(dense) == dim


def test_integral_cases_take_the_generating_set_path():
    # otherwise the test below would compare the full stack with itself
    gens = {name for name in INTEGRAL_CASES if builtin(name).algebra.generators is not None}
    assert {"sweedler(Q)", "taft(3,2,F7)", "taft(4,2,F5)", "taft(4,2,F5)*", "S3(Q)",
            "Q8(F3)"} <= gens


@pytest.mark.parametrize("name", sorted(INTEGRAL_CASES))
def test_integrals_on_generators_match_full_stack(name):
    h = builtin(name)
    assert hopf.left_integrals(h).basis == oracles.dense_integrals(h, "left")
    assert hopf.right_integrals(h).basis == oracles.dense_integrals(h, "right")


@st.composite
def group_algebras_of_tables(draw):
    """The group algebra of a relabelled group table over Q or F_p."""
    table = relabelled_table(draw, zoo.GROUP_TABLES)
    return hopf.group_algebra(draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)])), table)


@st.composite
def group_algebras(draw):
    """The group algebra, or its dual, of a relabelled group table over Q or F_p."""
    h = draw(group_algebras_of_tables())
    return hopf.dual(h) if draw(st.booleans()) else h


def assert_seeded_lines_match_the_solve(h):
    # both lines h holds by theorem are what the fully stacked dense solve
    # gives on an unseeded copy of h, and on its dual; the dual of h takes
    # them swapped, and the dual of that dual holds h's own
    bare = hopf.HopfAlgebraData(h.algebra, h.comult, h.counit, h.antipode)
    assert h.integrals["left"].basis == oracles.dense_integrals(bare, "left")
    assert h.integrals["dual"].basis == oracles.dense_integrals(hopf.dual(bare), "left")
    d = hopf.dual(h)
    assert (d.integrals["left"], d.integrals["dual"]) == (h.integrals["dual"], h.integrals["left"])
    assert hopf.dual(d).integrals == h.integrals


@given(group_algebras_of_tables())
def test_group_algebra_integrals_on_generators_match_full_stack(h):
    # kG keeps, by theorem, the report verify_hopf gives it and the integral
    # sum_g g, and solves nothing; its dual takes that report and the line
    # of 1*, and solves nothing either
    assert h.report == hopf.verify_hopf(h)
    assert_seeded_lines_match_the_solve(h)
    d = hopf.dual(h)
    assert d.report == hopf.verify_hopf(d)
    for g in (h, d):
        with mock.patch.object(hopf, "_integral_space", wraps=hopf._integral_space) as solve:
            left = hopf.left_integrals(g)
            assert left.basis == oracles.dense_integrals(g, "left")
            assert hopf.right_integrals(g).basis == oracles.dense_integrals(g, "right")
            # the integral space is kept on g
            assert hopf.left_integrals(g) is left
            full = oracles.dense_integrals(g, "left")
            assert hopf.is_semisimple(g) == (g.counit_vec(full[0]) != g.domain.zero)
        assert solve.call_count == 0


# the three least primes p with n | p - 1, so F_p holds the primitive n-th
# roots of unity
TAFT_PRIMES = {2: (3, 5, 7), 3: (7, 13, 19), 4: (5, 13, 17), 5: (11, 31, 41), 6: (7, 13, 19),
               7: (29, 43, 71), 8: (17, 41, 73)}
SEEDED_TAFT_CASES = [(QQ, 2, -1)] + [
    (GF(p), n, q) for n, primes in TAFT_PRIMES.items() for p in primes
    for q in primitive_roots(p, n)]


@pytest.mark.parametrize("domain,n,q", SEEDED_TAFT_CASES, ids=lambda v: str(v))
def test_taft_integral_lines_match_the_dense_solve(domain, n, q):
    assert_seeded_lines_match_the_solve(hopf.taft(domain, n, q))


def test_no_integral_line_is_seeded_over_z():
    assert hopf.sweedler(ZZ).integrals == {}
    assert hopf.group_algebra(ZZ, [[0, 1], [1, 0]]).integrals == {}


@functools.lru_cache(maxsize=None)
def taft_and_dual(p, n, q):
    h = hopf.taft(GF(p), n, q)
    return h, hopf.dual(h)


@st.composite
def right_integral_cases(draw):
    """A builtin Taft algebra over F_p at any primitive root, or its dual;
    the group algebra, or its dual, of a relabelled group table; or
    Sweedler's algebra over Q or F_p."""
    kind = draw(st.sampled_from(["taft", "group", "sweedler"]))
    if kind == "taft":
        n = draw(st.integers(2, 6))
        p = draw(st.sampled_from(TAFT_PRIMES[n]))
        return taft_and_dual(p, n, draw(st.sampled_from(primitive_roots(p, n))))[
            draw(st.integers(0, 1))]
    if kind == "group":
        return draw(group_algebras())
    return hopf.sweedler(draw(st.sampled_from([QQ, GF(3), GF(5), GF(7)])))


@given(right_integral_cases())
def test_right_integral_is_the_full_right_solve(h):
    # the antipode image of the left integral, scaled to a leading 1, is the
    # canonical basis of the fully stacked right-regular fixed points
    assert hopf.right_integrals(h).basis == oracles.dense_integrals(h, "right")


def witness_cases(h):
    """Lawful actions of H, an action whose unit fails, and one that fails
    at a pair: the identity is added to the block of a basis element b
    outside the support of the unit, so the unit still acts as the
    identity while e_b e_b no longer acts as the square of its block."""
    dom, n = h.domain, h.dim
    regular = regular_actions(h)
    left = regular["left"]
    cases = {"left-regular": (left, n), "trivial": (trivial_action(h, 2), 2),
             "right-regular": (regular["right"], n), "zero": ((((),) * n,) * n, n)}
    free = [b for b in range(n) if not h.algebra.unit[b]]
    if free:
        shifted = tuple(
            tuple(sorted(linalg.sparse_sum(dom, col + ((m, dom.one),)).items()))
            for m, col in enumerate(left[free[0]])
        )
        cases["shifted-block"] = (tuple(shifted if a == free[0] else left[a] for a in range(n)), n)
    return cases


@pytest.mark.parametrize("name", ZOO_AND_DUALS)
def test_representation_witness_matches_dense_oracle(name):
    h = builtin(name)
    dom = h.domain
    witnesses = {}
    for case, (action, dim) in witness_cases(h).items():
        witness = h.algebra.representation_witness(actions.action_maps(dom, action, dim))
        dense = oracles.dense_action_matrices(dom, action, dim)
        assert witness == oracles.dense_representation_witness(h.algebra, dense), case
        witnesses[case] = witness
    assert witnesses["left-regular"] is None and witnesses["trivial"] is None
    assert witnesses["zero"] == ("unit",)
    # the right regular action is a left action exactly when H is commutative
    assert (witnesses["right-regular"] is None) == h.algebra.is_commutative()
    if "shifted-block" in witnesses:
        assert len(witnesses["shifted-block"]) == 2


def test_module_law_is_decided_on_every_generator():
    # Sweedler's algebra on itself with x acting as L_x + 1 and gx as
    # L_g (L_x + 1): multiplicative in the rows of 1 and g, so only the row
    # of the last generator, x, refuses the law
    alg = hopf.sweedler(QQ).algebra
    assert alg.generators == (1, 2)
    left = [ColumnMap(QQ, 4, row) for row in alg.mult]
    x = ColumnMap.combination(QQ, [1, 1], [left[2], ColumnMap.identity(QQ, 4)], 4, 4)
    maps = [left[0], left[1], x, left[1] @ x]
    witness = alg.representation_witness(maps)
    assert witness == oracles.dense_representation_witness(alg, [m.to_dense() for m in maps])
    assert witness == (2, 1)


# semisimplicity and structure ----------------------------------------------------


def test_semisimple_flags():
    assert hopf.is_semisimple(zoo.qc2())
    assert not hopf.is_semisimple(zoo.fpc2(2))
    assert not hopf.is_semisimple(hopf.sweedler(QQ))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", sorted(zoo.GROUP_TABLES))
def test_group_algebra_semisimple_iff_p_does_not_divide_order(p, name):
    table = zoo.GROUP_TABLES[name]
    h = hopf.group_algebra(GF(p), table)
    assert hopf.is_semisimple(h) == (len(table) % p != 0)


def test_cocommutative_antipode_is_involution():
    for name in ZOO:
        h = builtin(name)
        if h.is_cocommutative():
            alpha = h.antipode.to_dense()
            assert alpha @ alpha == Matrix.identity(h.domain, h.dim), name


def test_antipode_rank_matches_minor_oracle():
    sw = hopf.sweedler(GF(5))
    rows = [list(r) for r in sw.antipode.to_dense().rows]
    assert oracles.minor_rank(rows, oracles.mod_p_nonzero(5)) == 4
    assert linalg.rank(sw.antipode) == 4
    # taft antipode: monomial matrix (one nonzero per row and column),
    # hence invertible by inspection
    t = builtin("taft(3,2,F7)")
    for j in range(9):
        assert sum(1 for v in t.antipode.col(j) if v != 0) == 1
    for row in t.antipode.to_dense().rows:
        assert sum(1 for v in row if v != 0) == 1
    assert linalg.rank(t.antipode) == 9


def test_locality():
    assert hopf.is_local(zoo.fpc2(2))
    assert hopf.is_local(zoo.divided_power_hopf())
    assert not hopf.is_local(zoo.qc2())
    assert not hopf.is_local(hopf.sweedler(QQ))
    assert not hopf.is_local(hopf.dual(zoo.fpc2(2)))


# is_local answers a semisimple H by theorem (local only in dimension 1) and
# powers the counit kernel of the others; the oracle powers it for all


@pytest.mark.parametrize("name", ANTIPODE_CASES)
def test_is_local_of_a_builtin_matches_the_powering_oracle(name):
    h = builtin(name)
    assert hopf.is_local(h) == oracles.powered_is_local(h)


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("name", sorted(zoo.GROUP_TABLES))
def test_is_local_of_a_group_algebra_matches_the_powering_oracle(domain, name):
    # kG and its dual, with p dividing |G| or not
    h = hopf.group_algebra(domain, zoo.GROUP_TABLES[name])
    for g in (h, hopf.dual(h)):
        assert hopf.is_local(g) == oracles.powered_is_local(g)
    # kG is local exactly when G is a p-group in characteristic p, or trivial
    n, p = h.dim, domain.characteristic
    while p and n % p == 0:
        n //= p
    assert hopf.is_local(h) == (n == 1)


# fuzzing: bad structure constants must be rejected -------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2)
        ),
        max_size=5,
    )
)
def test_random_multiplication_tensors_rejected_or_associative(entries):
    try:
        alg = hopf.algebra_from_triples(QQ, 2, ("a", "b"), entries, (1, 0))
    except AxiomError:
        return
    assert alg.associativity_witness() is None
    assert alg.unit_witness() is None


@st.composite
def unit_law_cases(draw):
    """The algebra record of a group table over Q or F_5, with its unit
    often replaced by a random vector or one cell of the identity's row
    or column overwritten; the laws are not decided."""
    table = draw(group_tables())
    dom, n = draw(st.sampled_from([QQ, GF(5)])), len(table)
    cells = {(i, j): ((table[i][j], dom.one),) for i in range(n) for j in range(n)}
    unit = linalg.unit_vec(dom, n, 0)
    change = draw(st.sampled_from(["none", "unit", "cell"]))
    if change == "unit":
        unit = tuple(dom.normalize(v) for v in draw(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    elif change == "cell":
        j = draw(st.integers(0, n - 1))
        entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-2, 2)), max_size=2))
        cell = tuple(sorted(linalg.sparse_sum(dom, ((k, dom.normalize(c)) for k, c in entries)).items()))
        cells[(0, j) if draw(st.booleans()) else (j, 0)] = cell
    mult = tuple(tuple(cells[i, j] for j in range(n)) for i in range(n))
    return hopf.AlgebraData(dom, n, tuple(f"e{i}" for i in range(n)), mult, unit)


@given(unit_law_cases())
def test_unit_witness_matches_dense_products(alg):
    assert alg.unit_witness() == oracles.dense_unit_witness(alg)


def test_malformed_triple_reports_offender():
    with pytest.raises(FormatError) as err:
        hopf.algebra_from_triples(QQ, 2, ("a", "b"), [(0, 0, 5, 1)], (1, 0))
    assert "(0, 0, 5" in str(err.value).replace("[", "(")


# generating sets: Light's test and the bialgebra rows against the full loops ----
#
# Each refusal must carry the witness of the full lexicographic scan, and each
# acceptance must be one the full scan makes too.

C6_TABLE = zoo.cyclic_table(6)
GROUP_TABLES = {
    "C5": zoo.cyclic_table(5),
    "C6": C6_TABLE,
    "V4": [[i ^ j for j in range(4)] for i in range(4)],
    # S3 as permutations of {0, 1, 2}, the identity first
    "S3": (lambda perms: [
        [perms.index(tuple(p[q[x]] for x in range(3))) for q in perms] for p in perms
    ])([(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]),
}


def relabelled_table(draw, tables):
    """One of `tables` with its non-identity elements relabelled."""
    table = tables[draw(st.sampled_from(sorted(tables)))]
    n = len(table)
    label = [0] + draw(st.permutations(range(1, n)))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[label[i]][label[j]] = label[table[i][j]]
    return out


@st.composite
def group_tables(draw):
    """A group table with its non-identity elements relabelled, and often one
    cell past the identity row and column overwritten; or a random table
    with the identity at 0."""
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(2, 5))
        cells = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
        return [list(range(n))] + [
            [i] + cells[(i - 1) * (n - 1):i * (n - 1)] for i in range(1, n)
        ]
    out = relabelled_table(draw, GROUP_TABLES)
    n = len(out)
    if draw(st.booleans()):
        i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        out[i][j] = draw(st.integers(0, n - 1))
    return out


def construction_failure(domain, dim, triples, unit):
    """(check, witness) of the AxiomError that building the algebra raises, or None."""
    try:
        hopf.algebra_from_triples(domain, dim, [f"e{i}" for i in range(dim)], triples, unit)
    except AxiomError as exc:
        return exc.check, exc.witness
    return None


def table_failure(table):
    try:
        hopf.check_group_table(table)
    except AxiomError as exc:
        return exc.check, exc.witness
    return None


@given(group_tables())
def test_group_table_light_test_matches_full_scan(table):
    n = len(table)
    inverse = next((i for i, row in enumerate(table) if 0 not in row), None)
    witness = oracles.group_associativity_witness(table)
    if inverse is not None:
        expected = ("group-inverse", (inverse,))
    else:
        expected = None if witness is None else ("group-associativity", witness)
    assert table_failure(table) == expected
    # the group algebra decides the same question on its own basis
    triples = [(i, j, table[i][j], 1) for i in range(n) for j in range(n)]
    unit = linalg.unit_vec(GF(5), n, 0)
    assert construction_failure(GF(5), n, triples, unit) == oracles.algebra_axiom_failure(
        GF(5), n, triples, unit)


def coboundary_twists(draw):
    """A group table and a random f : G -> F_7^x with f(1) = 1, and the
    coboundary c(g, h) = f(g) f(h) / f(gh) of f."""
    table = GROUP_TABLES[draw(st.sampled_from(sorted(GROUP_TABLES)))]
    n = len(table)
    dom = GF(7)
    f = [1] + draw(st.lists(st.integers(1, 6), min_size=n - 1, max_size=n - 1))
    twist = {(g, h): dom.div(dom.mul(f[g], f[h]), f[table[g][h]]) for g in range(n) for h in range(n)}
    return table, f, twist


@st.composite
def twisted_group_algebras(draw):
    """e_g e_h = c(g, h) e_gh over F_7, with c the coboundary of a random
    f (f(1) = 1), which is associative, or that c with one value past the
    identity row and column rescaled."""
    table, _, twist = coboundary_twists(draw)
    n = len(table)
    dom = GF(7)
    if draw(st.booleans()):
        g, h = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        twist[g, h] = dom.mul(twist[g, h], draw(st.integers(2, 6)))
    return n, [(g, h, table[g][h], twist[g, h]) for g in range(n) for h in range(n)]


@given(twisted_group_algebras())
def test_twisted_group_algebra_light_test_matches_full_scan(case):
    n, triples = case
    unit = linalg.unit_vec(GF(7), n, 0)
    assert construction_failure(GF(7), n, triples, unit) == oracles.algebra_axiom_failure(
        GF(7), n, triples, unit)


@given(st.data())
def test_is_local_of_a_twisted_group_algebra_matches_the_powering_oracle(data):
    # the associative twisted group algebras, kG over F_7 in the basis
    # e_g = f(g) g: counit f(g), Delta e_g = e_g (x) e_g / f(g) and
    # S(e_g) = f(g) / f(g^-1) e_(g^-1) carry kG's Hopf structure over; of
    # these, only F_7 C_7 is not semisimple
    table, f, twist = coboundary_twists(data.draw)
    n, dom = len(table), GF(7)
    inverse = [table[g].index(0) for g in range(n)]
    alg = hopf.algebra_from_triples(dom, n, tuple(f"e{g}" for g in range(n)), [
        (g, k, table[g][k], twist[g, k]) for g in range(n) for k in range(n)],
        linalg.unit_vec(dom, n, 0))
    comult = hopf.sparse_tensor(dom, (n, n, n), [(g, g, g, dom.inv(f[g])) for g in range(n)], 1)
    antipode = hopf.matrix_from_triples(
        dom, n, [(g, inverse[g], dom.div(f[g], f[inverse[g]])) for g in range(n)])
    h = hopf.build_hopf(alg, comult, tuple(f), antipode)
    # local exactly for the 7-groups, C_1 and C_7
    assert hopf.is_local(h) == oracles.powered_is_local(h) == (n in (1, 7))


# dual as a transposition -----------------------------------------------------------
#
# dual(H) takes H's report without a check of its own; a full check of the
# dual record must agree with that report.


@st.composite
def verified_hopf_algebras(draw):
    """A builtin or its dual (over Q, F_2, F_5 or F_7), or the group algebra,
    or its dual, of a relabelled group table over Q or F_p."""
    if draw(st.booleans()):
        return builtin(draw(st.sampled_from(sorted(ANTIPODE_CASES))))
    return draw(group_algebras())


@given(verified_hopf_algebras())
def test_dual_report_matches_a_full_check_of_the_dual(h):
    d = hopf.dual(h)
    alg = d.algebra
    assert d.report is not None
    assert oracles.algebra_axiom_failure(
        d.domain, d.dim, oracles.mult_triples(alg), alg.unit) is None
    assert d.report == hopf.verify_hopf(d)
    dd = hopf.dual(d)
    assert (dd.algebra.mult, dd.algebra.unit, dd.comult, dd.counit, dd.antipode) == (
        h.algebra.mult, h.algebra.unit, h.comult, h.counit, h.antipode)


@st.composite
def unverified_hopf_data(draw):
    """The structure constants of a verified Hopf algebra with one comult
    cell, counit entry or antipode column replaced, as unverified data; or a
    twisted group algebra over F_7 with the group coalgebra, a bialgebra
    only when the twist is 1."""
    if draw(st.booleans()):
        n, triples = draw(twisted_group_algebras())
        dom = GF(7)
        table = {(g, k): gk for g, k, gk, _ in triples}
        inverse = [next(k for k in range(n) if table[g, k] == 0) for g in range(n)]
        alg = hopf.AlgebraData(dom, n, tuple(f"e{i}" for i in range(n)),
                               hopf.sparse_tensor(dom, (n, n, n), triples, 2),
                               linalg.unit_vec(dom, n, 0))
        comult = hopf.sparse_tensor(dom, (n, n, n), [(g, g, g, 1) for g in range(n)], 1)
        antipode = hopf.matrix_from_triples(dom, n, [(g, inverse[g], 1) for g in range(n)])
        return alg, comult, (dom.one,) * n, antipode
    h = draw(verified_hopf_algebras())
    dom, n = h.domain, h.dim
    comult, counit, antipode = h.comult, h.counit, h.antipode
    i = draw(st.integers(0, n - 1))
    cell = tuple(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=2)))
    part = draw(st.sampled_from(["comult", "counit", "antipode"]))
    if part == "comult":
        comult = hopf.sparse_tensor(dom, (n, n, n), [
            (a, u, v, w) for a in range(n) for u, v, w in comult[a] if a != i
        ] + [(i,) + e for e in cell], 1)
    elif part == "counit":
        counit = counit[:i] + (dom.normalize(draw(st.integers(-2, 2))),) + counit[i + 1:]
    else:
        antipode = hopf.matrix_from_triples(dom, n, [
            (k, t, c) for k in range(n) for t, c in antipode.cols[k] if k != i
        ] + [(i, u, w) for u, _, w in cell])
    return h.algebra, comult, counit, antipode


@given(unverified_hopf_data())
def test_dual_of_unverified_data_raises_what_build_hopf_raises(parts):
    try:
        expected = hopf.build_hopf(*parts).report
    except AxiomError as exc:
        expected = (exc.check, exc.witness)
    bad = hopf.HopfAlgebraData(*parts)
    try:
        got = hopf.dual(bad).report
    except AxiomError as exc:
        got = (exc.check, exc.witness)
    assert got == expected


def test_reduction_cases_take_the_generating_set_path():
    # otherwise the tests below would compare the full loop with itself
    gens = {name: builtin(name).algebra.generators for name in REDUCTION_CASES}
    assert gens == {"sweedler(Q)": (1, 2), "taft(3,2,F7)": (1, 3), "C6(F5)": (1,)}


@given(st.sampled_from(sorted(REDUCTION_CASES)), st.data())
def test_corrupted_mult_cell_light_test_matches_full_scan(name, data):
    h = builtin(name)
    alg, dom, n = h.algebra, h.domain, h.dim
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    k, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(-3, 3))
    triples = with_mult_cell(alg, i, j, k, c, data.draw(st.booleans()))
    assert construction_failure(dom, n, triples, alg.unit) == oracles.algebra_axiom_failure(
        dom, n, triples, alg.unit)


def with_mult_cell(alg, i, j, k, c, keep):
    """The mult entries of alg with (i, j, k, c) added to the cell (i, j),
    or, unless keep, put in its place."""
    n = alg.dim
    return [
        (a, b, t, w) for a in range(n) for b in range(n) for t, w in alg.mult[a][b]
        if keep or (a, b) != (i, j)
    ] + [(i, j, k, c)]


@st.composite
def mult_tensors(draw):
    """(domain, dim, mult entries, unit): Sweedler over Q, Taft 3 over F_7 or
    C_6 over F_5 with one mult cell changed, or a random sparse tensor over
    Q, F_p or Z, often with e_0 as a two-sided identity so that a generating
    set exists."""
    if draw(st.booleans()):
        alg = builtin(draw(st.sampled_from(sorted(REDUCTION_CASES)))).algebra
        n = alg.dim
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        cell = with_mult_cell(alg, i, j, k, draw(st.integers(-3, 3)), draw(st.booleans()))
        return alg.domain, n, cell, alg.unit
    dom = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), ZZ]))
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(index, index, index, st.integers(-2, 2)), max_size=3 * n))
    if draw(st.booleans()):
        identity = [(0, j, j, 1) for j in range(n)] + [(j, 0, j, 1) for j in range(1, n)]
        return dom, n, identity + triples, linalg.unit_vec(dom, n, 0)
    return dom, n, triples, draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))


@given(mult_tensors())
def test_associativity_witness_matches_the_dense_oracle(case):
    assert_associativity_witness_is_the_dense_oracles(*case)


# e_0 e_0 = 2 e_0: the first failing pair (0, 0) differs in every column but 0
@pytest.mark.parametrize("name", ["sweedler(Q)", "taft(3,2,F7)"])
def test_associativity_witness_of_a_doubled_unit_cell_matches_the_dense_oracle(name):
    alg = builtin(name).algebra
    assert_associativity_witness_is_the_dense_oracles(
        alg.domain, alg.dim, with_mult_cell(alg, 0, 0, 0, 2, False), alg.unit)


def assert_associativity_witness_is_the_dense_oracles(dom, n, triples, unit):
    mult = hopf.sparse_tensor(dom, (n, n, n), triples, 2)
    alg = hopf.AlgebraData(dom, n, tuple(f"e{i}" for i in range(n)), mult,
                           tuple(map(dom.normalize, unit)))
    failure = oracles.algebra_axiom_failure(dom, n, triples, unit)
    expected = failure[1] if failure and failure[0] == "associativity" else None
    assert alg.associativity_witness() == expected


def test_taft_light_test_composes_the_stored_mult_rows(monkeypatch):
    # the maps L_x are the stored mult rows: Light's test on T_4 composes them
    # |S| dim times, S = {g, x}, and multiplies no sparse vectors; the unit
    # axiom holds, so the unit is not among the tested words
    calls, inside = collections.Counter(), [False]

    def scoped(fn, flag):
        def wrapper(*args):
            outer, inside[0] = inside[0], flag
            try:
                return fn(*args)
            finally:
                inside[0] = outer
        return wrapper

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += inside[0]
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hopf.AlgebraData, "associativity_witness",
                        scoped(hopf.AlgebraData.associativity_witness, True))
    # the generating set is worked out on first read, inside the scan
    monkeypatch.setattr(hopf, "generating_set", scoped(hopf.generating_set, False))
    monkeypatch.setattr(hopf, "_product", counted("_product", hopf._product))
    monkeypatch.setattr(ColumnMap, "__matmul__", counted("matmul", ColumnMap.__matmul__))
    h = hopf.taft(GF(13), 4, 5)
    assert h.algebra.generators == (1, 4)
    assert (calls["_product"], calls["matmul"]) == (0, 2 * 16)


@given(st.sampled_from(sorted(REDUCTION_CASES)), st.data())
def test_corrupted_comult_cell_bialgebra_rows_match_full_loop(name, data):
    h = builtin(name)
    dom, n = h.domain, h.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    c = data.draw(st.integers(-3, 3))
    keep = data.draw(st.booleans())
    triples = [
        (a, u, v, w) for a in range(n) for u, v, w in h.comult[a] if keep or a != i
    ] + [(i, j, k, c)]
    comult = hopf.sparse_tensor(dom, (n, n, n), triples, 1)
    bad = hopf.HopfAlgebraData(h.algebra, comult, h.counit, h.antipode)
    check = next(c for c in hopf.verify_hopf(bad).checks if c.name == "bialgebra")
    assert check.witness == oracles.bialgebra_witness(bad)


def oracle_report(h):
    """The report of `hopf.verify_hopf` from the full-loop oracles; the
    algebra axioms hold on every case here."""
    witnesses = [
        ("associativity", None),
        ("unit", None),
        ("coassociativity", oracles.coassociativity_witness(h)),
        ("counit", oracles.counit_witness(h)),
        ("bialgebra", oracles.bialgebra_witness(h)),
        ("antipode", oracles.dense_antipode_witness(h)),
    ]
    return VerificationReport(tuple(CheckResult(name, w is None, w) for name, w in witnesses))


@st.composite
def corrupted_hopf_algebras(draw):
    """A case of REDUCTION_CASES or ANTIPODE_CASES with one comult cell,
    counit entry or antipode column changed; or C_6 over F_5 with the
    group-like Delta(g^a) = g^(ja) (x) g^(ka), counit 1 and alpha(g^a) =
    g^(ma), whose Delta and counit are algebra maps and alpha an
    anti-algebra map for every j, k and m, so that every law past the
    bialgebra law is decided on the generator g."""
    part = draw(st.sampled_from(["group-like", "comult", "counit", "antipode"]))
    if part == "group-like":
        h = builtin("C6(F5)")
        dom, j, k, m = h.domain, *(draw(st.integers(0, 5)) for _ in range(3))
        comult = tuple(((j * a % 6, k * a % 6, dom.one),) for a in range(6))
        antipode = ColumnMap(dom, 6, [((m * a % 6, dom.one),) for a in range(6)])
        return hopf.HopfAlgebraData(h.algebra, comult, h.counit, antipode)
    h = builtin(draw(st.sampled_from(sorted({*ANTIPODE_CASES, *REDUCTION_CASES}))))
    dom, n = h.domain, h.dim
    counit, antipode = h.counit, h.antipode
    i = draw(st.integers(0, n - 1))
    if part == "comult":
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        return with_comult_cell(h, i, j, k, draw(st.integers(-2, 2)))
    if part == "counit":
        counit = counit[:i] + (dom.add(counit[i], dom.normalize(draw(st.integers(-2, 2)))),) \
            + counit[i + 1:]
    else:
        col = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-2, 2)), max_size=2))
        antipode = hopf.matrix_from_triples(dom, n, [
            (a, t, c) for a in range(n) for t, c in antipode.cols[a] if a != i
        ] + [(i, t, c) for t, c in col])
    return hopf.HopfAlgebraData(h.algebra, h.comult, counit, antipode)


def with_comult_cell(h, i, j, k, c):
    """h with c added to the coefficient of e_j (x) e_k in Delta(e_i)."""
    n = h.dim
    return hopf.HopfAlgebraData(h.algebra, hopf.sparse_tensor(h.domain, (n, n, n), [
        (a, u, v, w) for a in range(n) for u, v, w in h.comult[a]
    ] + [(i, j, k, c)], 1), h.counit, h.antipode)


@given(corrupted_hopf_algebras())
def test_corrupted_hopf_data_report_matches_the_full_loops(bad):
    assert hopf.verify_hopf(bad) == oracle_report(bad)


CORRUPTED_BUILTINS = {
    # Delta(gx) gains gx (x) gx: the bialgebra law fails, and with it the
    # generator rows g and x, where coassociativity still holds, decide nothing
    "sweedler(Q)": lambda h: with_comult_cell(h, 3, 3, 3, 1),
    # alpha(g) = g, which the gate passes (C_6 is abelian), fails the antipode
    # identity only on the rows g^a with 2a != 0 mod 6
    "C6(F5)": lambda h: hopf.HopfAlgebraData(h.algebra, h.comult, h.counit,
                                             ColumnMap.identity(h.domain, h.dim)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTED_BUILTINS))
def test_corrupted_builtin_report_matches_the_full_loops(name):
    bad = CORRUPTED_BUILTINS[name](builtin(name))
    assert hopf.verify_hopf(bad) == oracle_report(bad)


def test_taft_decides_the_coalgebra_and_antipode_laws_on_the_generator_rows(monkeypatch):
    # once the bialgebra law holds, T_4 reads the coassociativity, counit and
    # antipode laws on its generators g and x only, after alpha(1) = 1 and
    # two compositions per generator for anti-multiplicativity
    h = hopf.taft(GF(13), 4, 5)
    assert h.algebra.generators == (1, 4)
    rows = collections.defaultdict(list)

    def counted(name, fn):
        def wrapper(*args):
            rows[name].append(args[-1])
            return fn(*args)
        return wrapper

    for name in ("_coassociative_at", "_counital_at", "_antipode_at"):
        monkeypatch.setattr(hopf, name, counted(name, getattr(hopf, name)))
    monkeypatch.setattr(ColumnMap, "__matmul__", counted("matmul", ColumnMap.__matmul__))
    assert hopf.verify_hopf(h).passed
    assert {name: len(seen) if name == "matmul" else seen for name, seen in rows.items()} == {
        "_coassociative_at": [1, 4], "_counital_at": [1, 4], "_antipode_at": [1, 4],
        "matmul": 2 * 2}


@pytest.mark.parametrize("name", sorted(ANTIPODE_CASES))
def test_generating_set_words_span_the_algebra(name):
    alg = builtin(name).algebra
    if alg.generators is not None:
        assert len(alg.generators) + 1 < alg.dim
        assert oracles.word_span_dim(alg, alg.generators) == alg.dim


def test_greedy_generators_of_taft_and_cyclic_groups():
    # {g, x} for Taft, one generator for a cyclic group
    assert hopf.taft(GF(5), 4, 2).algebra.generators == (1, 4)
    assert hopf.group_algebra(GF(5), zoo.cyclic_table(128)).algebra.generators == (1,)
    # two idempotents and the unit span F_5^3: no cheaper than the full scan
    assert hopf.dual(hopf.group_algebra(GF(5), zoo.cyclic_table(3))).algebra.generators is None


@pytest.mark.parametrize("table,gens", [
    (zoo.cyclic_table(128), (1,)),
    (C6_TABLE, (1,)),
    (GROUP_TABLES["S3"], (1, 3)),
    (GROUP_TABLES["V4"], (1, 2)),
    (zoo.cyclic_table(2), None),
], ids=["C128", "C6", "S3", "V4", "C2"])
def test_greedy_generators_of_group_tables(table, gens):
    assert hopf.group_generators(table) == gens


def test_light_test_needs_the_unit():
    # basis 1, a, b: a a = b, and 1 is a left unit, but a 1 = a + b.  The
    # words of a span only a and b; a passes Light's test while 1 fails it,
    # at ((a 1) 1 = a + 2b) != (a (1 1) = a + b)
    triples = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (1, 0, 2, 1),
               (2, 0, 2, 1), (1, 1, 2, 1)]
    unit = (1, 0, 0)
    mult = hopf.sparse_tensor(QQ, (3, 3, 3), triples, 2)
    assert hopf.generating_set(QQ, mult, unit) == (1,)
    expected = oracles.algebra_axiom_failure(QQ, 3, triples, unit)
    assert expected == ("associativity", (1, 0, 0))
    assert construction_failure(QQ, 3, triples, unit) == expected
