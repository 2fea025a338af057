from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfgal.errors import ShapeError, SingularMatrixError, UnsupportedDomainError
from hopfgal.linalg import (
    GF,
    QQ,
    ZZ,
    Matrix,
    combination,
    det,
    echelon_basis,
    hermite_normal_form,
    in_span,
    integer_kernel_basis,
    invert,
    kernel_basis,
    on_slot,
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


def test_floats_rejected_everywhere():
    for dom in (QQ, ZZ, GF(5)):
        with pytest.raises(UnsupportedDomainError):
            dom.normalize(0.5)


@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
def test_exact_addition_roundtrip(a, b):
    assert QQ.sub(QQ.add(a, b), b) == a


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
    assert invert(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)
    inv = invert(Matrix(QQ, [[2, 0], [0, 3]]))
    assert inv == Matrix(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert invert(Matrix(GF(5), [[2]])) == Matrix(GF(5), [[3]])


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
    assert z.kron(Matrix(QQ, [[1, 2], [3, 4]])).is_zero()


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


@st.composite
def slot_operands(draw):
    domain = draw(st.sampled_from([QQ, GF(5)]))
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    a = draw(small_matrix(domain, *shape))
    return domain, draw(st.integers(1, 3)), a, draw(st.integers(1, 3))


@given(slot_operands())
@example((QQ, 1, Matrix(QQ, [[1, -2], [0, 3]]), 1))
@example((GF(5), 1, Matrix(GF(5), [[1, 2, 3]]), 3))
@example((QQ, 3, Matrix(QQ, [[2, 1]]), 1))
@example((GF(5), 2, Matrix(GF(5), [[1], [0], [4]]), 2))  # a degeneracy: one column
@example((QQ, 1, Matrix(QQ, [[1], [1]]), 1))
def test_on_slot_matches_kron_with_identities(operands):
    domain, left, a, right = operands
    expected = Matrix.identity(domain, left).kron(a).kron(Matrix.identity(domain, right))
    assert on_slot(domain, left, a, right) == expected


@st.composite
def stack_operands(draw):
    domain = draw(st.sampled_from([QQ, GF(5)]))
    ncols = draw(st.integers(1, 3))
    heights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return [draw(small_matrix(domain, h, ncols)) for h in heights]


@given(stack_operands())
def test_stack_matches_iterated_stack_below(mats):
    expected = mats[0]
    for m in mats[1:]:
        expected = expected.stack_below(m)
    rows = [row for m in mats for row in m.rows]
    assert stack(mats) == expected == Matrix(mats[0].domain, rows)


def test_stack_of_one_matrix_is_that_matrix():
    m = Matrix(GF(5), [[1, 2], [3, 4]])
    assert stack([m]) == m


def test_stack_rejects_column_mismatch():
    with pytest.raises(ShapeError):
        stack([Matrix(QQ, [[1, 2]]), Matrix(QQ, [[1, 2]]), Matrix(QQ, [[1, 2, 3]])])
    with pytest.raises(ShapeError):
        Matrix(QQ, [[1, 2]]).stack_below(Matrix(QQ, [[1]]))


def test_combination_of_zero_coefficients_is_zero_matrix():
    mats = [Matrix(QQ, [[1, 2, 3], [4, 5, 6]]), Matrix(QQ, [[0, 1, 0], [1, 0, 1]])]
    assert combination(QQ, [0, 0], mats, 2, 3) == Matrix.zeros(QQ, 2, 3)
    assert combination(GF(5), [], [], 2, 3) == Matrix.zeros(GF(5), 2, 3)


@given(st.lists(small_entries, min_size=3, max_size=3), small_matrix(GF(5), 2, 3),
       small_matrix(GF(5), 2, 3), small_matrix(GF(5), 2, 3))
def test_combination_matches_scale_and_add(coeffs, a, b, c):
    expected = a.scale(coeffs[0]) + b.scale(coeffs[1]) + c.scale(coeffs[2])
    coeffs = [GF(5).normalize(x) for x in coeffs]
    assert combination(GF(5), coeffs, [a, b, c], 2, 3) == expected


# Keys (i, j) with i < 3 are drawn freely; key CANCELLED gets c and -c, so
# its total is zero whatever else is drawn.
CANCELLED = (3, 1)
raw_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_terms(draw):
    domain = draw(st.sampled_from([QQ, GF(5)]))
    keys = st.tuples(st.integers(0, 2), st.integers(0, 1))
    terms = draw(st.lists(st.tuples(keys, raw_coeffs), max_size=10))
    c = draw(raw_coeffs.filter(bool))
    terms = draw(st.permutations(terms + [(CANCELLED, c), (CANCELLED, -c)]))
    return domain, terms


@given(sparse_terms())
@example((QQ, [((0, 0), Fraction(1, 2)), (CANCELLED, 1), ((0, 0), Fraction(1, 2)),
               (CANCELLED, -1)]))
@example((GF(5), [((1, 1), 3), ((1, 1), 2), (CANCELLED, 2), ((2, 0), 1), (CANCELLED, -2)]))
def test_sparse_sum_and_from_entries_match_dense_reference(case):
    domain, raw = case
    terms = [(key, domain.normalize(c)) for key, c in raw]
    totals = {
        (i, j): domain.normalize(sum(c for key, c in raw if key == (i, j)))
        for i in range(4)
        for j in range(2)
    }
    sums = sparse_sum(domain, terms)
    assert sums == {key: c for key, c in totals.items() if c != domain.zero}
    assert CANCELLED not in sums
    m = Matrix.from_entries(domain, 4, 2, terms)
    assert m == Matrix(domain, [[totals[(i, j)] for j in range(2)] for i in range(4)])
    assert m.entry(*CANCELLED) == domain.zero


def test_from_entries_without_terms_is_zero_matrix():
    assert Matrix.from_entries(GF(5), 2, 3, []) == Matrix.zeros(GF(5), 2, 3)
    assert sparse_sum(QQ, []) == {}


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
    inv = invert(m)
    assert inv @ m == Matrix.identity(QQ, 3)
    assert m @ inv == Matrix.identity(QQ, 3)


@given(small_matrix(QQ, 4, 3))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))


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


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_hnf_properties(rows):
    m = Matrix(ZZ, rows)
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert abs(oracles.leibniz_det(u.rows)) == 1
    # canonical: pivots positive, entries above reduced
    pivots = []
    for row in h.rows:
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is not None:
            pivots.append((lead, row[lead]))
    assert all(p > 0 for _, p in pivots)
    assert [c for c, _ in pivots] == sorted(c for c, _ in pivots)


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
    assert in_span(QQ, b1, (1, 0, -1))


def test_rref_pivot_normalization():
    R, pivots = rref(Matrix(QQ, [[0, 2, 4], [0, 1, 2]]))
    assert pivots == (1,)
    assert R.rows[0] == (Fraction(0), Fraction(1), Fraction(2))


def test_det_integer_matches_oracle():
    rows = [[2, 1, 0], [0, 3, 1], [1, 1, 1]]
    assert det(Matrix(ZZ, rows)) == oracles.leibniz_det(rows)


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4
    )
)
def test_snf_matches_sympy_oracle(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ours = [f for f in smith_normal_form(Matrix(ZZ, rows)) if f]
    diag = sympy_snf(sympy.Matrix(rows))
    theirs = [abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i] != 0]
    assert ours == theirs


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
