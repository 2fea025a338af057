import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfgal import hopf, linalg
from hopfgal.errors import (
    DomainMismatchError,
    ShapeError,
    SingularMatrixError,
    UnsupportedDomainError,
)
from hopfgal.linalg import (
    GF,
    PRIME_BOUND,
    QQ,
    ZZ,
    ColumnMap,
    Matrix,
    PrimeField,
    _is_prime,
    column_space_basis,
    det,
    echelon_basis,
    echelon_insert,
    hermite_basis,
    hermite_normal_form,
    integer_kernel_basis,
    invert,
    kernel_basis,
    kernel_map,
    rank,
    rref,
    smith_normal_form,
    solve,
    sparse_sum,
    stack,
)

import oracles


# scalar domains -------------------------------------------------------------


def test_rational_normalization():
    assert QQ.normalize(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.parse("-1/2") == Fraction(-1, 2)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"


def test_prime_field_normalization():
    F5 = GF(5)
    assert F5.normalize(-1) == 4
    assert F5.parse("1/2") == 3  # 2 * 3 = 6 = 1
    assert F5.inv(2) == 3


def test_prime_field_rejects_composite():
    with pytest.raises(UnsupportedDomainError):
        GF(6)


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(10 ** 4) if _is_prime(n)] == [
        n for n in range(10 ** 4) if oracles.trial_division_is_prime(n)
    ]
    # Carmichael numbers pass Fermat's test to every coprime base
    assert not _is_prime(561) and not _is_prime(41041)
    assert _is_prime(10 ** 18 + 3) and not _is_prime(10 ** 18 + 1)


def test_prime_field_refuses_p_past_the_primality_bound():
    with pytest.raises(UnsupportedDomainError, match="too large"):
        GF(PRIME_BOUND)


def test_floats_rejected_everywhere():
    for dom in (QQ, ZZ, GF(5)):
        with pytest.raises(UnsupportedDomainError):
            dom.normalize(0.5)


@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
def test_exact_addition_roundtrip(a, b):
    assert QQ.sub(QQ.add(a, b), b) == a


# Q values for the differential test: integral Fractions inside and outside
# the shared table, non-integral ones, and raw ints passed through the API
TABLE = linalg._SMALL_BOUND
q_operands = st.one_of(
    st.integers(-TABLE, TABLE).map(Fraction),
    st.integers(-10 ** 30, 10 ** 30).map(Fraction),
    st.fractions(max_denominator=60),
    st.fractions(min_value=-TABLE, max_value=TABLE, max_denominator=3),
    st.integers(-2 * TABLE, 2 * TABLE),
)
q_texts = st.one_of(
    st.integers(-2 * TABLE, 2 * TABLE).map(str),
    st.fractions(max_denominator=60).map(str),
    st.tuples(st.integers(-600, 600), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["+7", " 3 ", "-0", "007", "1e2", "-2.5", "1_000", "4/-2"]),
)


def assert_q_value(result, expected):
    """`result` is the Fraction `expected`, and the table's object when it
    is integral and inside the table."""
    assert type(result) is Fraction
    assert result == expected
    if expected.denominator == 1 and -TABLE <= expected <= TABLE:
        assert result is linalg._integral(int(expected))


@given(q_operands, q_operands)
@example(Fraction(TABLE), Fraction(1))  # the sum leaves the table
@example(Fraction(1, 2), Fraction(1, 2))  # non-integral operands, integral sum
@example(3, 4)
@example(Fraction(TABLE), Fraction(2))  # the product leaves the table
@example(Fraction(-16), Fraction(16))  # the product is -256, at the table's edge
@example(Fraction(2), Fraction(1, 2))  # a non-integral operand, integral product
@example(3, Fraction(1, 3))  # a raw int
def test_q_domain_matches_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_q_value(QQ.add(a, b), fa + fb)
    assert_q_value(QQ.sub(a, b), fa - fb)
    assert_q_value(QQ.mul(a, b), fa * fb)
    assert_q_value(QQ.neg(a), -fa)
    assert_q_value(QQ.normalize(a), fa)
    if fb:
        assert_q_value(QQ.inv(b), 1 / fb)
        assert_q_value(QQ.div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)


@given(q_texts)
@example("abc")
@example("1/0")
def test_q_parse_matches_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            QQ.parse(text)
    else:
        assert_q_value(QQ.parse(text), expected)


def test_q_constants_are_the_shared_objects():
    assert QQ.zero is linalg._integral(0) and QQ.one is linalg._integral(1)
    assert QQ.parse("1") is QQ.one and QQ.normalize(0) is QQ.zero


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_exact_addition_roundtrip_fp(a, b):
    F7 = GF(7)
    a, b = F7.normalize(a), F7.normalize(b)
    assert F7.sub(F7.add(a, b), b) == a


# kernels, rank, inversion ----------------------------------------------------


def test_kernel_all_ones_rational():
    m = Matrix(QQ, [[1, 1], [1, 1]])
    assert kernel_basis(m) == ((Fraction(1), Fraction(-1)),)


def test_kernel_identity_f5_empty():
    assert kernel_basis(Matrix.identity(GF(5), 3)) == ()


def test_kernel_all_ones_f2():
    assert kernel_basis(Matrix(GF(2), [[1, 1], [1, 1]])) == ((1, 1),)


def test_kernel_requires_field():
    with pytest.raises(UnsupportedDomainError):
        kernel_basis(Matrix(ZZ, [[1, 1]]))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(QQ, 4)) == 4
    assert rank(Matrix.zeros(QQ, 3, 5)) == 0


def test_rank_galois_matrix_gaussian_case():
    # the 4x4 matrix of j for Q[x]/(x^2+1) with QC2, columns 1#1, 1#s, x#1, x#s
    # in the End(S) basis E_uv flattened u * 2 + v, expanded by hand
    rows = [
        [1, 1, 0, 0],
        [0, 0, -1, 1],
        [0, 0, 1, 1],
        [1, -1, 0, 0],
    ]
    m = Matrix(QQ, rows)
    assert oracles.minor_rank(rows) == 4
    assert rank(m) == oracles.minor_rank(rows)


def test_invert_examples():
    assert invert(Matrix.identity(QQ, 3)) == ColumnMap.identity(QQ, 3)
    inv = invert(Matrix(QQ, [[2, 0], [0, 3]]))
    assert inv.to_dense() == Matrix(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert invert(Matrix(GF(5), [[2]])).to_dense() == Matrix(GF(5), [[3]])


def test_invert_singular_reports_rank():
    with pytest.raises(SingularMatrixError) as err:
        invert(Matrix(QQ, [[1, 1], [1, 1]]))
    assert err.value.rank == 1


def test_solve_particular_and_inconsistent():
    m = Matrix(QQ, [[1, 1], [0, 0]])
    assert solve(m, (2, 0)) == (Fraction(2), Fraction(0))
    assert solve(m, (0, 1)) is None


# kronecker --------------------------------------------------------------------


def test_kron_identities():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(QQ, 3)
    assert a.kron(b) == Matrix.identity(QQ, 6)
    z = Matrix.zeros(QQ, 2, 2)
    assert z.kron(Matrix(QQ, [[1, 2], [3, 4]])) == Matrix.zeros(QQ, 4, 4)


def test_kron_diagonal():
    a = Matrix(QQ, [[1, 0], [0, 2]])
    b = Matrix(QQ, [[1, 0], [0, 3]])
    expected = Matrix(QQ, [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 6]])
    assert a.kron(b) == expected


small_entries = st.integers(-4, 4)


def small_matrix(domain, nrows, ncols):
    return st.lists(
        st.lists(small_entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(lambda rows: Matrix(domain, rows))


@given(small_matrix(QQ, 2, 2), small_matrix(QQ, 2, 3), small_matrix(QQ, 3, 2))
def test_kron_associative_up_to_flattening(a, b, c):
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


def mixed_column_maps(domain, nrows, ncols):
    """ColumnMaps whose columns are drawn empty, one-entry with coefficient
    one, one-entry with another coefficient, or with several entries."""
    coeffs = st.sampled_from([2, 3, -1]).map(domain.normalize)

    @st.composite
    def column(draw):
        kind = draw(st.sampled_from(["empty", "unit", "scaled", "several"]))
        if kind == "empty":
            return ()
        if kind == "several" and nrows > 1:
            rows = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=3, unique=True))
            return tuple(sorted((i, draw(coeffs)) for i in rows))
        return ((draw(st.integers(0, nrows - 1)), domain.one if kind == "unit" else draw(coeffs)),)

    return st.lists(column(), min_size=ncols, max_size=ncols).map(
        lambda cols: ColumnMap(domain, nrows, cols))


@st.composite
def mixed_composition_operands(draw):
    domain = draw(st.sampled_from([QQ, GF(5)]))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(mixed_column_maps(domain, r, k)), draw(mixed_column_maps(domain, k, c))


# Empty, one-entry and multi-entry columns on either side of a composition;
# a one-entry coefficient-one column gives the left factor's column itself.
@given(mixed_composition_operands())
@example((ColumnMap(QQ, 2, [((0, Fraction(1)),), ((0, Fraction(-1)),)]),
          ColumnMap(QQ, 2, [(), ((0, Fraction(1)), (1, Fraction(1))), ((1, Fraction(-1)),)])))
def test_compositions_of_mixed_columns_match_dense_product(operands):
    a, b = operands
    expected = ColumnMap.from_dense(a.to_dense() @ b.to_dense())
    composed = a @ b
    assert composed == expected
    assert all(c is a.cols[col[0][0]] for c, col in zip(composed.cols, b.cols)
               if len(col) == 1 and col[0][1] == a.domain.one)


@st.composite
def stack_operands(draw):
    domain = draw(st.sampled_from([QQ, GF(5)]))
    ncols = draw(st.integers(1, 3))
    heights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return [draw(small_matrix(domain, h, ncols)) for h in heights]


@given(stack_operands())
def test_stack_matches_concatenated_rows(mats):
    rows = [row for m in mats for row in m.rows]
    assert stack(mats) == stack([stack(mats[:1]), *mats[1:]]) == Matrix(mats[0].domain, rows)


def test_stack_of_one_matrix_is_that_matrix():
    m = Matrix(GF(5), [[1, 2], [3, 4]])
    assert stack([m]) == m


def test_stack_rejects_column_mismatch():
    with pytest.raises(ShapeError):
        stack([Matrix(QQ, [[1, 2]]), Matrix(QQ, [[1, 2]]), Matrix(QQ, [[1, 2, 3]])])
    with pytest.raises(ShapeError):
        stack([Matrix(QQ, [[1, 2]]), Matrix(QQ, [[1]])])


def test_combination_of_zero_coefficients_is_zero_matrix():
    mats = [Matrix(QQ, [[1, 2, 3], [4, 5, 6]]), Matrix(QQ, [[0, 1, 0], [1, 0, 1]])]
    assert oracles.combination(QQ, [0, 0], mats, 2, 3) == Matrix.zeros(QQ, 2, 3)
    assert oracles.combination(GF(5), [], [], 2, 3) == Matrix.zeros(GF(5), 2, 3)
    maps = [ColumnMap.from_dense(m) for m in mats]
    assert ColumnMap.combination(QQ, [0, 0], maps, 2, 3) == ColumnMap(QQ, 2, [()] * 3)
    assert ColumnMap.combination(GF(5), [], [], 2, 3).to_dense() == Matrix.zeros(GF(5), 2, 3)


@given(st.lists(small_entries, min_size=3, max_size=3), small_matrix(GF(5), 2, 3),
       small_matrix(GF(5), 2, 3), small_matrix(GF(5), 2, 3))
def test_combination_matches_scale_and_add(coeffs, a, b, c):
    expected = a.scale(coeffs[0]) + b.scale(coeffs[1]) + c.scale(coeffs[2])
    coeffs = [GF(5).normalize(x) for x in coeffs]
    assert oracles.combination(GF(5), coeffs, [a, b, c], 2, 3) == expected
    maps = [ColumnMap.from_dense(m) for m in (a, b, c)]
    assert ColumnMap.combination(GF(5), coeffs, maps, 2, 3).to_dense() == expected


@st.composite
def column_map_operands(draw):
    """a (r x k), b (k x c), a2 shaped like a, a vector of length k and two
    coefficients, over Q or F_5."""
    domain = draw(st.sampled_from([QQ, GF(5)]))
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    a, b, a2 = (draw(small_matrix(domain, *shape)) for shape in ((r, k), (k, c), (r, k)))
    vec = tuple(domain.normalize(x) for x in draw(st.lists(small_entries, min_size=k, max_size=k)))
    coeffs = [domain.normalize(x) for x in draw(st.lists(small_entries, min_size=2, max_size=2))]
    return a, b, a2, vec, coeffs


# In both examples a @ b, a.apply(vec) and 1 * a - 1 * a2 cancel to zero.
@given(column_map_operands())
@example((Matrix(QQ, [[1, 1]]), Matrix(QQ, [[1, 2], [-1, 0]]), Matrix(QQ, [[1, 1]]),
          (Fraction(1), Fraction(-1)), [Fraction(1), Fraction(-1)]))
@example((Matrix(GF(5), [[1, 2], [0, 1]]), Matrix(GF(5), [[3], [1]]),
          Matrix(GF(5), [[1, 2], [0, 1]]), (3, 1), [1, 4]))
def test_column_map_matches_dense_matrix(operands):
    a, b, a2, vec, coeffs = operands
    dom = a.domain
    sa, sb, sa2 = (ColumnMap.from_dense(m) for m in (a, b, a2))
    assert sa.to_dense() == a
    # from_dense is canonical, so these also check that zeros are dropped
    assert sa @ sb == ColumnMap.from_dense(a @ b)
    assert (sa @ sb).to_dense() == a @ b
    assert sa.apply(vec) == oracles.dense_apply(a, vec)
    assert [sa.col(j) for j in range(a.ncols)] == a.cols()
    assert (sa == sa2) == (a == a2)
    dense = oracles.combination(dom, coeffs, [a, a2], a.nrows, a.ncols)
    assert ColumnMap.combination(dom, coeffs, [sa, sa2], a.nrows, a.ncols) == ColumnMap.from_dense(dense)
    assert ColumnMap.identity(dom, a.ncols).to_dense() == Matrix.identity(dom, a.ncols)
    assert sa @ ColumnMap.identity(dom, a.ncols) == sa


def test_from_cols_normalizes_and_drops_zeros():
    # over F_5, -1 is 4, 7 is 2 and 5 is 0
    m = ColumnMap.from_cols(GF(5), 2, [(-1, 5), (0, 7)])
    assert m == ColumnMap(GF(5), 2, [((0, 4),), ((1, 2),)])
    assert m.col(0) == (4, 0)


def test_column_map_rejects_mismatched_operands():
    a = ColumnMap.identity(QQ, 2)
    with pytest.raises(ShapeError):
        a @ ColumnMap.identity(QQ, 3)
    with pytest.raises(ShapeError):
        a.apply((1, 2, 3))
    with pytest.raises(ShapeError):
        ColumnMap.from_cols(QQ, 2, [(1, 2, 3)])
    with pytest.raises(DomainMismatchError):
        a @ ColumnMap.identity(GF(5), 2)


# Keys (i, j) with i < 3 are drawn freely; key CANCELLED gets c and -c, so
# its total is zero whatever else is drawn; ZERO_ONLY gets the one term 0,
# and LONE one small integer, its only term.
CANCELLED, ZERO_ONLY, LONE = (3, 1), (3, 0), (4, 0)
raw_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_terms(draw):
    domain = draw(st.sampled_from([QQ, GF(5)]))
    keys = st.tuples(st.integers(0, 2), st.integers(0, 1))
    terms = draw(st.lists(st.tuples(keys, raw_coeffs), max_size=10))
    c = draw(raw_coeffs.filter(bool))
    n = draw(st.integers(-TABLE, TABLE))
    terms = draw(st.permutations(
        terms + [(CANCELLED, c), (CANCELLED, -c), (ZERO_ONLY, 0), (LONE, n)]))
    return domain, terms


@given(sparse_terms())
@example((QQ, [((0, 0), Fraction(1, 2)), (CANCELLED, 1), ((0, 0), Fraction(1, 2)),
               (CANCELLED, -1)]))
@example((GF(5), [((1, 1), 3), ((1, 1), 2), (CANCELLED, 2), ((2, 0), 1), (CANCELLED, -2)]))
@example((QQ, [(LONE, 7), (ZERO_ONLY, 0), (CANCELLED, 2), (CANCELLED, -2)]))
def test_sparse_sum_and_from_entries_match_dense_reference(case):
    domain, raw = case
    terms = [(key, domain.normalize(c)) for key, c in raw]
    totals = {
        (i, j): domain.normalize(sum(c for key, c in raw if key == (i, j)))
        for i in range(5)
        for j in range(2)
    }
    sums = sparse_sum(domain, terms)
    assert sums == {key: c for key, c in totals.items() if c != domain.zero}
    assert CANCELLED not in sums and ZERO_ONLY not in sums
    # a key's first term is kept as given: over Q, the shared table object
    lone = [c for key, c in terms if key == LONE]
    if lone and lone[0]:
        assert sums[LONE] is lone[0]
        if domain is QQ:
            assert type(sums[LONE]) is Fraction and sums[LONE] is linalg._integral(int(lone[0]))
    m = Matrix.from_entries(domain, 5, 2, terms)
    assert m == Matrix(domain, [[totals[(i, j)] for j in range(2)] for i in range(5)])
    assert m.rows[CANCELLED[0]][CANCELLED[1]] == domain.zero
    assert ColumnMap.from_entries(domain, 5, 2, terms) == ColumnMap.from_dense(m)


def test_from_entries_without_terms_is_zero_matrix():
    assert Matrix.from_entries(GF(5), 2, 3, []) == Matrix.zeros(GF(5), 2, 3)
    assert sparse_sum(QQ, []) == {}


# kernels of sparse maps ------------------------------------------------------------------


def column_map(domain, nrows, ncols, entries):
    terms = [(key, domain.normalize(c)) for key, c in entries]
    return ColumnMap.from_entries(domain, nrows, ncols, terms)


@st.composite
def sparse_systems(draw, square=False, domains=(QQ, GF(2), GF(5))):
    """A map of shape up to 9 x 9 over Q, F_2 or F_5 (or `domains`), mostly
    zeros; half the draws factor through at most 3 dimensions, so their
    kernels are large."""
    domain = draw(st.sampled_from(domains))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])

    def draw_map(nrows, ncols):
        values = draw(st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols))
        return column_map(domain, nrows, ncols, [
            ((k // ncols, k % ncols), v) for k, v in enumerate(values)
        ])

    nrows = draw(st.integers(0, 9))
    ncols = nrows if square else draw(st.integers(0, 9))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 3))
        return draw_map(nrows, inner) @ draw_map(inner, ncols)
    return draw_map(nrows, ncols)


@given(sparse_systems())
def test_kernel_matches_dense_kernel(m):
    dense = oracles.dense_kernel_basis(m.to_dense())
    assert kernel_basis(m) == kernel_basis(m.to_dense()) == dense
    assert kernel_map(m) == ColumnMap(m.domain, m.ncols, [
        tuple((i, x) for i, x in enumerate(v) if x) for v in dense
    ])


@given(sparse_systems())
def test_rank_and_echelon_bases_match_dense_rref(m):
    dense = m.to_dense()
    R, pivots = oracles.dense_rref(dense)
    assert rank(m) == rank(dense) == len(pivots)
    assert echelon_basis(m.domain, dense.rows) == oracles.dense_echelon_basis(m.domain, dense.rows)
    columns = oracles.dense_echelon_basis(m.domain, dense.cols())
    assert column_space_basis(m) == column_space_basis(dense) == columns
    assert rref(m) == rref(dense) == {
        p: {j: x for j, x in enumerate(R.rows[i]) if x} for i, p in enumerate(pivots)
    }


@given(sparse_systems(), st.data())
def test_solve_matches_dense_rref(m, data):
    entry = st.sampled_from([0, 1, -1, 2])
    dom, dense = m.domain, m.to_dense()
    x = [dom.normalize(v) for v in data.draw(st.lists(entry, min_size=m.ncols, max_size=m.ncols))]
    consistent = m.apply(x)
    other = data.draw(st.lists(entry, min_size=m.nrows, max_size=m.nrows))
    for b in (consistent, other):
        expected = oracles.dense_solve(dense, [dom.normalize(v) for v in b])
        assert solve(m, b) == solve(dense, b) == expected
    assert oracles.dense_solve(dense, consistent) is not None


@given(sparse_systems(square=True))
def test_invert_matches_dense_rref(m):
    dense = m.to_dense()
    inverse, r = oracles.dense_inverse(dense)
    for form in (m, dense):
        if inverse is None:
            with pytest.raises(SingularMatrixError) as err:
                invert(form)
            assert err.value.rank == r
        else:
            assert invert(form) == ColumnMap.from_dense(inverse)


def invertible_change(draw, domain, n):
    """A random invertible n x n map L U over domain: L unit lower
    triangular, U upper triangular with a nonzero diagonal."""
    entry, diagonal = st.sampled_from([0, 0, 1, -1, 2, -3]), st.sampled_from([1, -1, 2, 3, -3])
    lower = column_map(domain, n, n, [((i, j), draw(entry) if i > j else int(i == j))
                                      for i in range(n) for j in range(n)])
    upper = column_map(domain, n, n, [((i, j), draw(entry) if i < j else draw(diagonal) * (i == j))
                                      for i in range(n) for j in range(n)])
    return lower @ upper


@given(sparse_systems(domains=(QQ, GF(7))), st.data())
def test_one_space_has_one_canonical_basis(m, data):
    # two spanning sets of one space, one the other after an invertible
    # change, give one basis: the column space of m and of m P, and the
    # kernel of m and of Q m.  Callers compare spans by == on these bases.
    dom = m.domain
    moved = m @ invertible_change(data.draw, dom, m.ncols)
    columns = column_space_basis(m)
    assert column_space_basis(moved) == columns
    for vectors in (m.to_dense().cols(), moved.to_dense().cols(), columns):
        assert echelon_basis(dom, vectors) == columns
    kernel = kernel_basis(m)
    assert kernel_basis(invertible_change(data.draw, dom, m.nrows) @ m) == kernel
    assert echelon_basis(dom, kernel) == kernel


@st.composite
def permuted_sparse_systems(draw):
    """A map of shape up to 40 x 40 over Q, F_2 or F_5 and the same map
    with its rows permuted.  Its columns are scattered sparse entries,
    cotensor-shaped pairs c e_a - c e_b (one entry, or none, when the two
    meet), or a product through at most 4 dimensions, which leaves the
    rank small and the kernel large."""
    domain = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    nrows, ncols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["scattered", "cotensor", "product"]))
    rnd = draw(st.randoms(use_true_random=False))
    density = rnd.choice([0.03, 0.1, 0.3])
    coeffs = [1, -1, 2, -3]

    def scattered(nrows, ncols):
        return column_map(domain, nrows, ncols, [
            ((i, j), rnd.choice(coeffs))
            for i in range(nrows) for j in range(ncols) if rnd.random() < density
        ])

    if kind == "product":
        inner = rnd.randrange(5)
        m = scattered(nrows, inner) @ scattered(inner, ncols)
    elif kind == "cotensor" and nrows:
        entries = []
        for j in range(ncols):
            c = rnd.choice(coeffs)
            entries += [((rnd.randrange(nrows), j), c), ((rnd.randrange(nrows), j), -c)]
        m = column_map(domain, nrows, ncols, entries)
    else:
        m = scattered(nrows, ncols)
    order = list(range(nrows))
    rnd.shuffle(order)
    permuted = ColumnMap(domain, nrows, [
        tuple(sorted((order[i], v) for i, v in col)) for col in m.cols])
    return m, permuted


@settings(max_examples=60)
@given(permuted_sparse_systems())
def test_elimination_of_permuted_sparse_systems_matches_dense_rref(systems):
    m, permuted = systems
    dense = m.to_dense()
    R, pivots = oracles.dense_rref(dense)
    expected = {p: {j: x for j, x in enumerate(R.rows[i]) if x} for i, p in enumerate(pivots)}
    assert rref(m) == rref(permuted) == expected
    assert rank(m) == rank(permuted) == len(pivots)
    kernel = ColumnMap(m.domain, m.ncols, [
        tuple((i, x) for i, x in enumerate(v) if x) for v in oracles.dense_kernel_basis(dense)
    ])
    assert kernel_map(m) == kernel_map(permuted) == kernel
    columns = oracles.dense_echelon_basis(m.domain, dense.cols())
    assert column_space_basis(m) == columns
    assert column_space_basis(permuted) == oracles.dense_echelon_basis(
        m.domain, permuted.to_dense().cols())


@st.composite
def sparse_algebra_tables(draw):
    """Structure constants of dimension 1 to 7 over Q, F_2 or F_5, no law
    assumed: each product is zero, one basis vector or a cotensor-shaped
    pair c e_a - c e_b, and the unit vector is drawn too."""
    domain = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    n = draw(st.integers(1, 7))
    rnd = draw(st.randoms(use_true_random=False))
    coeffs = [1, -1, 2]
    entries = []
    for i in range(n):
        for j in range(n):
            c, size = rnd.choice(coeffs), rnd.choice([0, 1, 1, 2])
            entries += [(i, j, rnd.randrange(n), c), (i, j, rnd.randrange(n), -c)][:size]
    mult = hopf.sparse_tensor(domain, (n, n, n), entries, 2)
    unit = tuple(domain.normalize(rnd.choice([0, 0, 1, -1])) for _ in range(n))
    return hopf.AlgebraData(domain, n, tuple(f"e{i}" for i in range(n)), mult, unit)


@settings(max_examples=60)
@given(sparse_algebra_tables())
def test_generating_set_matches_the_dense_greedy_set(alg):
    gens = hopf.generating_set(alg.domain, alg.mult, alg.unit)
    assert gens == oracles.dense_generating_set(alg)
    if gens is not None:
        assert oracles.word_span_dim(alg, gens) == alg.dim


def test_echelon_insert_meets_each_pivot_once():
    # stored rows e_i + e_(i+1), not reduced, and the row e_0 + .. + e_29,
    # which is their sum over the even i.  In increasing column order the
    # even pivots clear it, each with one subtraction of 2 products, and
    # the odd columns cancel on the way.  Popped from the top down, each
    # pivot would add the column above it back, to be met again.
    class CountingField(PrimeField):
        products = 0

        def mul(self, a, b):
            CountingField.products += 1
            return super().mul(a, b)

    field, n = CountingField(7), 30
    pivots = {}
    for i in range(n):
        assert echelon_insert(field, pivots, [(i, 1), (i + 1, 1)]) == i
    CountingField.products = 0
    assert echelon_insert(field, pivots, [(c, 1) for c in range(n)]) is None
    assert CountingField.products == n
    assert len(pivots) == n


@st.composite
def reduced_row_systems(draw):
    """A sparse map over Q or F_7 whose rows mix the kinds that `rref`
    takes without elimination and the kinds it eliminates: empty rows,
    one entry in a column no earlier row holds, one entry repeated on a
    column an earlier row holds, and rows of two to four entries."""
    domain = draw(st.sampled_from((QQ, GF(7))))
    ncols = draw(st.integers(1, 10))
    value = st.sampled_from([1, -1, 2, 3, -3, Fraction(1, 2)])
    rows, seen = [], []
    for kind in draw(st.lists(st.sampled_from(("empty", "fresh", "repeat", "mixed")),
                              max_size=12)):
        if kind == "empty":
            rows.append({})
        elif kind == "fresh" or (kind == "repeat" and not seen):
            fresh = [c for c in range(ncols) if c not in seen] or range(ncols)
            rows.append({draw(st.sampled_from(fresh)): draw(value)})
        elif kind == "repeat":
            rows.append({draw(st.sampled_from(seen)): draw(value)})
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=4, unique=True))
            rows.append({c: draw(value) for c in cols})
        seen.extend(rows[-1])
    return ColumnMap(domain, ncols, [
        tuple((c, domain.normalize(v)) for c, v in sorted(row.items())) for row in rows
    ]).transpose()


@given(reduced_row_systems())
def test_rows_already_reduced_eliminate_as_the_general_path_does(m):
    # the shortcuts for empty rows, unit rows, rows of their pivot alone and
    # one-entry kernel vectors give the unique RREF the general path gives,
    # from the rows of a ColumnMap and from the `enumerate` rows of a Matrix
    expected = oracles.general_rref(m)
    assert rref(m) == rref(m.to_dense()) == expected
    assert all(row[p] == m.domain.one for p, row in expected.items())
    assert rank(m) == rank(m.to_dense()) == len(expected)
    kernel = oracles.general_kernel_map(m)
    assert kernel_map(m) == kernel_map(m.to_dense()) == kernel
    assert kernel_basis(m) == oracles.dense_kernel_basis(m.to_dense())
    t = m.transpose()
    assert rref(t) == oracles.general_rref(t)
    assert kernel_map(t) == oracles.general_kernel_map(t)


def test_a_unit_row_in_a_fresh_column_is_stored_as_its_pivot_alone():
    # the row 3 e_2 meets no stored pivot: it is stored as e_2, as the
    # general path scales it; on a stored pivot it lies in the span
    pivots = {}
    assert echelon_insert(QQ, pivots, ((0, QQ.one), (2, Fraction(5)))) == 0
    assert echelon_insert(QQ, pivots, ((2, Fraction(3)),)) == 2
    assert echelon_insert(QQ, pivots, ((2, Fraction(-1)),)) is None
    assert pivots == {0: {0: QQ.one, 2: Fraction(5)}, 2: {2: QQ.one}}
    fp = {}
    assert echelon_insert(GF(7), fp, ((4, 3),)) == 4 and fp == {4: {4: 1}}
    # rows e_0 + 5 e_2, 3 e_2 and 0: the empty row is skipped, the unit row
    # stored, and the back-substitution clears column 2 from the first row
    m = ColumnMap(QQ, 3, [((0, QQ.one),), (), ((0, Fraction(5)), (1, Fraction(3)))])
    assert rref(m) == {0: {0: QQ.one}, 2: {2: QQ.one}}


# name: (domain, nrows, ncols, ((row, col), coeff) entries, kernel dimension)
KERNEL_EXAMPLES = {
    "zero": (QQ, 3, 4, [], 4),
    "identity": (GF(5), 4, 4, [((i, i), 1) for i in range(4)], 0),
    "zero-row-and-column": (GF(2), 3, 3, [((0, 0), 1), ((0, 2), 1), ((2, 0), 1)], 1),
    "full-rank-wide": (QQ, 3, 5, [((0, 0), 1), ((0, 4), 3), ((1, 1), 2), ((1, 2), 1),
                                  ((2, 0), 2), ((2, 3), 1), ((2, 4), -1)], 2),
    "full-rank-tall": (GF(5), 5, 3, [((0, 0), 1), ((1, 0), 2), ((1, 1), 1), ((2, 1), 1),
                                     ((2, 2), 1), ((4, 0), 3), ((4, 2), 1)], 0),
    # column 1 gets 2 and -2 in row 0, so it is zero and e_1 lies in the kernel
    "cancelled-column": (QQ, 2, 3, [((0, 1), 2), ((0, 0), 1), ((0, 1), -2), ((1, 2), 1),
                                    ((1, 0), 1)], 1),
}


@pytest.mark.parametrize("name", KERNEL_EXAMPLES)
def test_kernel_examples(name):
    domain, nrows, ncols, entries, nullity = KERNEL_EXAMPLES[name]
    m = column_map(domain, nrows, ncols, entries)
    basis = kernel_basis(m)
    assert basis == kernel_basis(m.to_dense()) == oracles.dense_kernel_basis(m.to_dense())
    assert len(basis) == nullity
    assert all(not any(m.apply(v)) for v in basis)


def test_kernel_of_a_column_map_requires_field():
    with pytest.raises(UnsupportedDomainError):
        kernel_map(ColumnMap.identity(ZZ, 2))


@given(small_matrix(QQ, 3, 4))
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(small_matrix(GF(3), 3, 3))
def test_rank_nullity_f3(m):
    assert rank(m) + len(kernel_basis(m)) == 3


@given(small_matrix(QQ, 3, 3))
def test_inverse_roundtrip(m):
    if rank(m) < 3:
        return
    inv = invert(m).to_dense()
    assert inv @ m == Matrix.identity(QQ, 3)
    assert m @ inv == Matrix.identity(QQ, 3)


@given(small_matrix(QQ, 4, 3))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in oracles.dense_apply(m, v))


# integer normal forms ----------------------------------------------------------


def test_hnf_identity():
    h, u = hermite_normal_form(Matrix.identity(ZZ, 3))
    assert h == Matrix.identity(ZZ, 3)
    assert u == Matrix.identity(ZZ, 3)


def test_hnf_already_diagonal():
    m = Matrix(ZZ, [[2, 0], [0, 2]])
    h, u = hermite_normal_form(m)
    assert h == m


def test_hnf_hand_example():
    # row reduction of [[1,1],[1,-1]] by hand gives diagonal (1, 2)
    m = Matrix(ZZ, [[1, 1], [1, -1]])
    h, u = hermite_normal_form(m)
    assert h == Matrix(ZZ, [[1, 1], [0, 2]])
    assert u @ m == h
    assert abs(oracles.leibniz_det(u.rows)) == 1


@st.composite
def integer_matrices(draw, max_side):
    """Integer matrices from 1x1 to max_side x max_side with entries in
    [-9, 9], many zeros, and often a zero row or a zero column."""
    nrows, ncols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    return rows


@given(integer_matrices(7))
@example([[0]])
@example([[-3]])
@example([[0, 0], [0, 3]])
@example([[0, 2, 4], [0, 0, 0], [0, 3, 5]])
def test_hnf_properties(rows):
    # the defining conditions, which with h = u m and u unimodular pin h
    m = Matrix(ZZ, rows)
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert abs(oracles.leibniz_det(u.rows)) == 1
    leads = [next((j for j, v in enumerate(row) if v), None) for row in h.rows]
    rank = sum(lead is not None for lead in leads)
    # zero rows last, and pivot columns strictly increasing, so every entry
    # below a pivot is zero
    assert leads[rank:] == [None] * (h.nrows - rank)
    pivots = leads[:rank]
    assert pivots == sorted(set(pivots))
    for i, j in enumerate(pivots):
        assert h.rows[i][j] > 0
        assert all(0 <= h.rows[k][j] < h.rows[i][j] for k in range(i))


@given(integer_matrices(7))
@example([[0]])
@example([[0, 0], [0, 3]])
def test_hermite_basis_is_the_nonzero_rows_of_the_hnf(rows):
    # the same reduction without the transform columns
    m = Matrix(ZZ, rows)
    h, _ = hermite_normal_form(m)
    assert hermite_basis(m) == tuple(row for row in h.rows if any(row))


def test_hnf_idempotent_on_canonical_form():
    m = Matrix(ZZ, [[4, 6, 1], [2, 2, 0], [0, 8, 2]])
    h, _ = hermite_normal_form(m)
    h2, _ = hermite_normal_form(h)
    assert h == h2


def test_snf_examples():
    assert smith_normal_form(Matrix.identity(ZZ, 2)) == (1, 1)
    assert smith_normal_form(Matrix(ZZ, [[2]])) == (2,)
    # gcd/lcm oracle: Z/2 (+) Z/3 = Z/1 (+) Z/6
    assert smith_normal_form(Matrix(ZZ, [[2, 0], [0, 3]])) == (1, 6)


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_snf_divisibility_and_det(rows):
    m = Matrix(ZZ, rows)
    factors = smith_normal_form(m)
    nonzero = [f for f in factors if f]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    d = oracles.leibniz_det(rows)
    if d != 0:
        prod = 1
        for f in nonzero:
            prod *= f
        assert prod == abs(d)


def test_integer_kernel_is_saturated():
    m = Matrix(ZZ, [[2, 4]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    # (2, -1) spans; (4, -2) would not be saturated
    assert tuple(abs(x) for x in v) == (2, 1)


# canonical forms ---------------------------------------------------------------


def test_echelon_basis_is_canonical():
    b1 = echelon_basis(QQ, [(1, 1, 0), (0, 1, 1)])
    b2 = echelon_basis(QQ, [(1, 2, 1), (2, 3, 1)])
    assert b1 == b2
    assert oracles.echelon_in_span(QQ, b1, (1, 0, -1))
    assert not oracles.echelon_in_span(QQ, b1, (1, 0, 0))


def test_rref_pivot_normalization():
    # one pivot, in column 1, whose row is (0, 1, 2)
    m = Matrix(QQ, [[0, 2, 4], [0, 1, 2]])
    assert rref(m) == rref(ColumnMap.from_dense(m)) == {1: {1: Fraction(1), 2: Fraction(2)}}


def test_det_integer_matches_oracle():
    rows = [[2, 1, 0], [0, 3, 1], [1, 1, 1]]
    assert det(Matrix(ZZ, rows)) == oracles.leibniz_det(rows)


@st.composite
def det_cases(draw):
    """Square integer matrices up to 5x5, many zeros; some made singular by a
    multiple of another row, some with a zero first pivot that forces a swap."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "singular", "swap"]))
    if kind == "singular" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(-3, 3))
        rows[i] = [k * v for v in rows[j]]
    elif kind == "swap" and n >= 2:
        rows[0][0] = 0
    return rows


@given(det_cases())
@example([])
@example([[-7]])
@example([[0]])
@example([[0, 1], [1, 0]])
# the second pivot vanishes after the first step, so the swap happens at step 1
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
def test_bareiss_det_matches_leibniz(rows):
    m = Matrix(ZZ, rows) if rows else Matrix.zeros(ZZ, 0, 0)
    assert det(m) == oracles.leibniz_det(rows)


def test_det_refuses_non_square_and_field_matrices():
    with pytest.raises(ShapeError):
        det(Matrix(ZZ, [[1, 2]]))
    with pytest.raises(UnsupportedDomainError):
        det(Matrix(QQ, [[1]]))


@given(st.integers(1, 3).flatmap(lambda r: st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                       min_size=r, max_size=r))))
def test_integer_kernel_basis_is_a_saturated_kernel_basis(rows):
    # properties of the lattice the basis spans, whatever transform the HNF used
    m = Matrix(ZZ, rows)
    basis = integer_kernel_basis(m)
    for b in basis:
        assert all(sum(a * x for a, x in zip(row, b)) == 0 for row in rows)
    assert len(basis) == m.ncols - oracles.minor_rank(rows)
    if basis:
        assert oracles.minor_rank(basis) == len(basis)
        assert set(smith_normal_form(Matrix(ZZ, basis))) == {1}


@given(integer_matrices(6))
@example([[0, 0], [0, 3]])
@example([[2, 4, 6], [0, 0, 0]])
def test_snf_matches_sympy_oracle(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ours = smith_normal_form(Matrix(ZZ, rows))
    diag = sympy_snf(sympy.Matrix(rows))
    theirs = [abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i] != 0]
    assert len(ours) == min(diag.shape)
    assert list(ours) == theirs + [0] * (len(ours) - len(theirs))


def _seeded_matrix(n, seed):
    rng = random.Random(seed)
    return Matrix(ZZ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


# Random matrices whose entries, not their size, made the earlier
# extended-gcd elimination slow: tens of seconds for each of these two.
# Euclid's row reduction keeps the working entries small.
def test_integer_normal_forms_do_not_blow_up_on_their_entries():
    m = _seeded_matrix(32, 4)
    start = time.perf_counter()
    h, u = hermite_normal_form(m)
    assert time.perf_counter() - start < 2
    assert u @ m == h
    m = _seeded_matrix(48, 2)
    start = time.perf_counter()
    factors = smith_normal_form(m)
    assert time.perf_counter() - start < 2
    assert math.prod(factors) == abs(det(m))


def _in_row_lattice(basis_rows, row):
    # reduce against a Hermite basis; membership iff the remainder is zero
    vec = list(row)
    for brow in basis_rows:
        lead = next(j for j, v in enumerate(brow) if v)
        if vec[lead] % brow[lead] == 0:
            q = vec[lead] // brow[lead]
            vec = [a - q * b for a, b in zip(vec, brow)]
    return all(v == 0 for v in vec)


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4
    )
)
def test_hnf_row_span_preserved(rows):
    m = Matrix(ZZ, rows)
    h, _ = hermite_normal_form(m)
    basis = [r for r in h.rows if any(r)]
    # every original row lies in the Hermite lattice and conversely every
    # Hermite row is an integer combination of original rows (h = u m)
    for row in m.rows:
        assert _in_row_lattice(basis, row)
