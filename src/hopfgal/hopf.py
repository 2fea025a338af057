"""Finite-dimensional algebras and Hopf algebras by structure constants.

An algebra is a multiplication tensor plus a unit vector on a labelled
basis; a Hopf algebra adds a comultiplication tensor, a counit vector
and an explicit antipode matrix.  Axioms are checked eagerly: algebra
axioms at construction, the full Hopf axiom list through
:func:`verify_hopf` (the builtin constructors and the file loader run
it and refuse failing data).

Basis order is part of the data.  Tensor-square flattenings are always
lexicographic with the left factor varying slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import (
    AxiomError,
    FormatError,
    InconsistencyError,
    ShapeError,
    UnsupportedDomainError,
)
from .linalg import Matrix
from .reporting import CheckResult, VerificationReport


_sparse = linalg.sparse_entries


def dense_tensor_from_triples(domain, shape, triples):
    """Dense nested tuple from sparse entries (i_1, .., i_k, coeff).

    ``shape`` holds one bound per axis; an index at or past the bound of
    its own axis is a format error.
    """
    arity = len(shape)

    def build(depth):
        if depth == arity:
            return domain.zero
        return [build(depth + 1) for _ in range(shape[depth])]

    grid = build(0)
    for entry in triples:
        if len(entry) != arity + 1:
            raise FormatError(f"tensor entry {entry!r} has wrong length")
        *idx, c = entry
        if any((not isinstance(i, int)) or i < 0 or i >= n for i, n in zip(idx, shape)):
            raise FormatError(f"index out of range in tensor entry {entry!r}")
        cell = grid
        for i in idx[:-1]:
            cell = cell[i]
        cell[idx[-1]] = domain.add(cell[idx[-1]], domain.normalize(c))

    def freeze(cell, depth):
        if depth == arity:
            return cell
        return tuple(freeze(sub, depth + 1) for sub in cell)

    return freeze(grid, 0)


# ---------------------------------------------------------------------------
# algebras


@dataclass(frozen=True)
class AlgebraData:
    """Finite algebra: mult[i][j] is the coefficient vector of e_i * e_j."""

    domain: object
    dim: int
    labels: tuple
    mult: tuple
    unit: tuple

    def __post_init__(self):
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise ShapeError("label or unit length does not match dimension")
        if len(self.mult) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row)
            for row in self.mult
        ):
            raise ShapeError("multiplication tensor shape mismatch")
        witness = self.associativity_witness()
        if witness is not None:
            raise AxiomError("associativity", witness)
        witness = self.unit_witness()
        if witness is not None:
            raise AxiomError("unit", witness)

    @classmethod
    def _unchecked(cls, domain, dim, labels, mult, unit):
        """Skip the axiom scan: the algebra is derived from a verified one, or
        verify_hopf scans it next."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "domain", domain)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "labels", labels)
        object.__setattr__(obj, "mult", mult)
        object.__setattr__(obj, "unit", unit)
        return obj

    @cached_property
    def mult_sparse(self):
        """mult_sparse[i][j]: the nonzero (k, c) pairs of e_i * e_j."""
        zero = self.domain.zero
        return tuple(tuple(tuple(_sparse(v, zero)) for v in row) for row in self.mult)

    # vector arithmetic in the algebra ------------------------------------

    def mul_vec(self, u, v):
        dom = self.domain
        out = [dom.zero] * self.dim
        for i, a in enumerate(u):
            if a == dom.zero:
                continue
            for j, b in enumerate(v):
                if b == dom.zero:
                    continue
                c = dom.mul(a, b)
                for k, w in self.mult_sparse[i][j]:
                    out[k] = dom.add(out[k], dom.mul(c, w))
        return tuple(out)

    def left_mult_matrix(self, vec):
        """Matrix of x -> vec * x (columns are images of basis vectors)."""
        mul, zero, sparse = self.domain.mul, self.domain.zero, self.mult_sparse
        terms = (
            ((k, j), mul(a, w))
            for i, a in enumerate(vec) if a != zero
            for j in range(self.dim)
            for k, w in sparse[i][j]
        )
        return Matrix.from_entries(self.domain, self.dim, self.dim, terms)

    def right_mult_matrix(self, vec):
        mul, zero, sparse = self.domain.mul, self.domain.zero, self.mult_sparse
        terms = (
            ((k, i), mul(a, w))
            for j, a in enumerate(vec) if a != zero
            for i in range(self.dim)
            for k, w in sparse[i][j]
        )
        return Matrix.from_entries(self.domain, self.dim, self.dim, terms)

    def is_commutative(self):
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i)
        )

    # axiom scans ----------------------------------------------------------

    def associativity_witness(self):
        dom = self.domain
        sparse = self.mult_sparse
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    left = [dom.zero] * self.dim
                    for t, c in sparse[i][j]:
                        for u, w in sparse[t][k]:
                            left[u] = dom.add(left[u], dom.mul(c, w))
                    right = [dom.zero] * self.dim
                    for t, c in sparse[j][k]:
                        for u, w in sparse[i][t]:
                            right[u] = dom.add(right[u], dom.mul(c, w))
                    if left != right:
                        return (i, j, k)
        return None

    def unit_witness(self):
        dom = self.domain
        for j in range(self.dim):
            left = self.mul_vec(self.unit, linalg.unit_vec(dom, self.dim, j))
            right = self.mul_vec(linalg.unit_vec(dom, self.dim, j), self.unit)
            e_j = linalg.unit_vec(dom, self.dim, j)
            if left != e_j or right != e_j:
                return (j,)
        return None

    def representation_witness(self, mats):
        """Witness that e_a -> mats[a] is not a unital algebra map, or None.

        Returns ("unit",) when the unit does not act as the identity and
        (a, b) when e_a e_b does not act as mats[a] @ mats[b].
        """
        dom = self.domain
        n = mats[0].nrows
        if linalg.combination(dom, self.unit, mats, n, n) != Matrix.identity(dom, n):
            return ("unit",)
        for a in range(self.dim):
            for b in range(self.dim):
                if linalg.combination(dom, self.mult[a][b], mats, n, n) != mats[a] @ mats[b]:
                    return (a, b)
        return None

    def format_element(self, vec):
        return linalg.format_vector(self.domain, self.labels, vec)


def algebra_from_triples(domain, dim, labels, mult_triples, unit):
    mult = dense_tensor_from_triples(domain, (dim, dim, dim), mult_triples)
    return AlgebraData(
        domain,
        dim,
        tuple(labels),
        mult,
        tuple(domain.normalize(v) for v in unit),
    )


# ---------------------------------------------------------------------------
# Hopf algebras


@dataclass(frozen=True)
class HopfAlgebraData:
    """Hopf structure on top of an AlgebraData.

    comult[i][j][k] is the coefficient of e_j (x) e_k in Delta(e_i);
    counit is a coefficient vector; antipode is the matrix whose column
    i is the image of e_i.  No Hopf axioms are enforced here, so tests
    can build corrupted instances; `build_hopf` and every builtin
    constructor run :func:`verify_hopf` and raise on failure.
    """

    algebra: AlgebraData
    comult: tuple
    counit: tuple
    antipode: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.counit) != n:
            raise ShapeError("counit length mismatch")
        if len(self.comult) != n or any(
            len(g) != n or any(len(row) != n for row in g) for g in self.comult
        ):
            raise ShapeError("comultiplication tensor shape mismatch")
        if self.antipode.nrows != n or self.antipode.ncols != n:
            raise ShapeError("antipode shape mismatch")

    @property
    def domain(self):
        return self.algebra.domain

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    @cached_property
    def _comult_lists(self):
        zero = self.domain.zero
        return tuple(
            tuple((j, k, c) for j, row in enumerate(g) for k, c in enumerate(row) if c != zero)
            for g in self.comult
        )

    def comult_sparse(self, i):
        """The nonzero (j, k, c) triples of Delta(e_i)."""
        return self._comult_lists[i]

    def comult_vec(self, vec):
        """Delta of a general element as a dict (j, k) -> coeff."""
        mul, zero = self.domain.mul, self.domain.zero
        return linalg.sparse_sum(
            self.domain,
            (((j, k), mul(a, c)) for i, a in enumerate(vec) if a != zero
             for j, k, c in self.comult_sparse(i)),
        )

    def counit_vec(self, vec):
        dom = self.domain
        acc = dom.zero
        for a, e in zip(vec, self.counit):
            acc = dom.add(acc, dom.mul(a, e))
        return acc

    def is_cocommutative(self):
        n = self.dim
        return all(
            self.comult[i][j][k] == self.comult[i][k][j]
            for i in range(n)
            for j in range(n)
            for k in range(j + 1)
        )

    def format_element(self, vec):
        return self.algebra.format_element(vec)


def verify_hopf(h):
    """Full axiom report: associativity, unit, coassociativity, counit,
    bialgebra compatibility and the antipode identity.

    Each failing check carries one witnessing basis index tuple.
    """
    alg = h.algebra
    dom = alg.domain
    n = alg.dim
    zero, mul = dom.zero, dom.mul
    checks = []

    checks.append(_check("associativity", alg.associativity_witness()))
    checks.append(_check("unit", alg.unit_witness()))

    # coassociativity: (Delta (x) id) Delta = (id (x) Delta) Delta
    witness = None
    for i in range(n):
        delta = h.comult_sparse(i)
        left = linalg.sparse_sum(
            dom, (((a, b, k), mul(c, c2)) for j, k, c in delta for a, b, c2 in h.comult_sparse(j))
        )
        right = linalg.sparse_sum(
            dom, (((j, a, b), mul(c, c2)) for j, k, c in delta for a, b, c2 in h.comult_sparse(k))
        )
        if left != right:
            witness = (i,)
            break
    checks.append(_check("coassociativity", witness))

    # counit axiom
    witness = None
    for i in range(n):
        left = [zero] * n
        right = [zero] * n
        for j, k, c in h.comult_sparse(i):
            left[k] = dom.add(left[k], dom.mul(c, h.counit[j]))
            right[j] = dom.add(right[j], dom.mul(c, h.counit[k]))
        e_i = list(linalg.unit_vec(dom, n, i))
        if left != e_i or right != e_i:
            witness = (i,)
            break
    checks.append(_check("counit", witness))

    # bialgebra compatibility: Delta and counit are algebra maps
    witness = None
    unit_tensor = linalg.sparse_sum(
        dom, (((i, j), mul(a, b)) for i, a in enumerate(alg.unit) for j, b in enumerate(alg.unit))
    )
    if h.comult_vec(alg.unit) != unit_tensor:
        witness = ("unit",)
    if witness is None and h.counit_vec(alg.unit) != dom.one:
        witness = ("unit",)
    if witness is None:
        for i in range(n):
            for j in range(n):
                lhs = h.comult_vec(alg.mult[i][j])
                rhs = _square_product(alg, h.comult_sparse(i), h.comult_sparse(j))
                if lhs != {(u, v): c for u, v, c in rhs}:
                    witness = (i, j)
                    break
                eps = zero
                for k, c in alg.mult_sparse[i][j]:
                    eps = dom.add(eps, dom.mul(c, h.counit[k]))
                if eps != dom.mul(h.counit[i], h.counit[j]):
                    witness = (i, j)
                    break
            if witness is not None:
                break
    checks.append(_check("bialgebra", witness))

    # antipode: mu (alpha (x) id) Delta = unit . counit = mu (id (x) alpha) Delta
    witness = None
    for i in range(n):
        left = [zero] * n
        right = [zero] * n
        for j, k, c in h.comult_sparse(i):
            alpha_j = h.antipode.col(j)
            term = alg.mul_vec(alpha_j, linalg.unit_vec(dom, n, k))
            for t, v in enumerate(term):
                left[t] = dom.add(left[t], dom.mul(c, v))
            alpha_k = h.antipode.col(k)
            term = alg.mul_vec(linalg.unit_vec(dom, n, j), alpha_k)
            for t, v in enumerate(term):
                right[t] = dom.add(right[t], dom.mul(c, v))
        target = list(linalg.vec_scale(dom, h.counit[i], alg.unit))
        if left != target or right != target:
            witness = (i,)
            break
    checks.append(_check("antipode", witness))

    return VerificationReport(tuple(checks))


def _square_product(alg, u, v):
    """Product in alg (x) alg of two elements given as (a, b, c) triples.

    Uses (e_a (x) e_b)(e_c (x) e_d) = e_a e_c (x) e_b e_d and returns the
    nonzero (s, t, c) triples of the product.
    """
    mul, sparse = alg.domain.mul, alg.mult_sparse
    terms = (
        ((s, t), mul(mul(c1, c2), mul(w1, w2)))
        for a, b, c1 in u
        for c, d, c2 in v
        for s, w1 in sparse[a][c]
        for t, w2 in sparse[b][d]
    )
    return [(s, t, c) for (s, t), c in linalg.sparse_sum(alg.domain, terms).items()]


def _check(name, witness):
    return CheckResult(name, witness is None, witness)


def build_hopf(algebra, comult, counit, antipode):
    """Validated Hopf algebra; raises AxiomError with the first failure."""
    h = HopfAlgebraData(algebra, comult, counit, antipode)
    report = verify_hopf(h)
    if not report.passed:
        bad = report.failures()[0]
        raise AxiomError(bad.name, bad.witness)
    return h


def hopf_from_triples(domain, dim, labels, mult, unit, comult, counit, antipode):
    """Hopf algebra from sparse structure constants (validated)."""
    alg = algebra_from_triples(domain, dim, labels, mult, unit)
    comult_dense = dense_tensor_from_triples(domain, (dim, dim, dim), comult)
    anti = dense_tensor_from_triples(domain, (dim, dim), antipode)
    return build_hopf(
        alg,
        comult_dense,
        tuple(domain.normalize(v) for v in counit),
        Matrix.from_cols(domain, anti, dim),
    )


# ---------------------------------------------------------------------------
# builtin constructors


def check_group_table(table):
    """Validates a multiplication table (identity at 0); returns inverses."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n or any((not isinstance(v, int)) or v < 0 or v >= n for v in row):
            raise FormatError(f"row {i} of the group table is malformed")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise AxiomError("group-identity", (i,))
    inverses = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inverses[i] = j
                break
        if inverses[i] is None:
            raise AxiomError("group-inverse", (i,))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise AxiomError("group-associativity", (i, j, k))
    return inverses


def group_algebra(domain, table, labels=None):
    """Group algebra with Delta(g) = g (x) g, counit 1, antipode g^-1."""
    inverses = check_group_table(table)
    n = len(table)
    if labels is None:
        labels = ("1",) + tuple(f"g{i}" for i in range(1, n))
    mult = [(i, j, table[i][j], domain.one) for i in range(n) for j in range(n)]
    comult = [(i, i, i, domain.one) for i in range(n)]
    counit = [domain.one] * n
    antipode = [(i, inverses[i], domain.one) for i in range(n)]
    unit = linalg.unit_vec(domain, n, 0)
    return hopf_from_triples(domain, n, labels, mult, unit, comult, counit, antipode)


def sweedler(domain):
    """Sweedler's four-dimensional Hopf algebra (char != 2)."""
    if domain.characteristic == 2:
        raise UnsupportedDomainError("the Sweedler algebra degenerates in characteristic 2")
    return taft(domain, 2, domain.normalize(-1), labels=("1", "g", "x", "gx"))


def taft(domain, n, q, labels=None):
    """Taft algebra of dimension n^2 for a primitive n-th root of unity q.

    Basis element b*n + a stands for g^a x^b, so taft(2, -1) has the
    basis order 1, g, x, gx.  Relations: g^n = 1, x^n = 0, xg = q gx.
    Delta g = g (x) g and Delta x = x (x) 1 + g (x) x, extended
    multiplicatively; the antipode sends g to g^-1 and x to -g^-1 x and
    is extended as an anti-homomorphism.
    """
    if n < 2:
        raise FormatError("taft needs n >= 2")
    q = domain.normalize(q)
    power = domain.one
    for k in range(1, n + 1):
        power = domain.mul(power, q)
        if k < n and power == domain.one:
            raise AxiomError("primitive-root", (k,), f"q^{k} = 1 already")
    if power != domain.one:
        raise AxiomError("primitive-root", (n,), f"q^{n} != 1")

    dim = n * n

    def idx(a, b):
        return b * n + a

    if labels is None:
        def lab(a, b):
            g = "" if a == 0 else ("g" if a == 1 else f"g^{a}")
            x = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
            return (g + x) if (g or x) else "1"

        labels = tuple(lab(a, b) for b in range(n) for a in range(n))

    qpow = [domain.one]
    for _ in range(n * n):
        qpow.append(domain.mul(qpow[-1], q))

    mult = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b + d >= n:
                        continue
                    coeff = qpow[b * c]
                    mult.append((idx(a, b), idx(c, d), idx((a + c) % n, b + d), coeff))
    unit = linalg.unit_vec(domain, dim, idx(0, 0))
    # verify_hopf in build_hopf below runs the algebra axiom scans
    alg = AlgebraData._unchecked(
        domain, dim, tuple(labels), dense_tensor_from_triples(domain, (dim, dim, dim), mult), unit
    )

    # Delta(g^a x^b) = Delta(g)^a Delta(x)^b, multiplied out in H (x) H
    one = domain.one
    delta_g = [(idx(1, 0), idx(1, 0), one)]
    delta_x = [(idx(0, 1), idx(0, 0), one), (idx(1, 0), idx(0, 1), one)]
    comult = [None] * dim
    delta_ga = [(idx(0, 0), idx(0, 0), one)]
    for a in range(n):
        vec = delta_ga
        for b in range(n):
            grid = [[domain.zero] * dim for _ in range(dim)]
            for u, v, c in vec:
                grid[u][v] = c
            comult[idx(a, b)] = tuple(tuple(row) for row in grid)
            vec = _square_product(alg, vec, delta_x)
        delta_ga = _square_product(alg, delta_ga, delta_g)

    # counit(g^a x^b) = [b == 0]
    counit = [domain.zero] * dim
    for a in range(n):
        counit[idx(a, 0)] = domain.one
    counit = tuple(counit)

    # antipode: alpha(g) = g^-1, alpha(x) = -g^-1 x = -g^{n-1} x,
    # extended as an anti-homomorphism: alpha(g^a x^b) = alpha(x)^b alpha(g)^a
    alpha_g = linalg.unit_vec(domain, dim, idx((n - 1) % n, 0))
    alpha_x = [domain.zero] * dim
    alpha_x[idx(n - 1, 1)] = domain.neg(domain.one)
    alpha_x = tuple(alpha_x)
    cols = []
    for b in range(n):
        for a in range(n):
            vec = alg.unit
            for _ in range(b):
                vec = alg.mul_vec(vec, alpha_x)
            for _ in range(a):
                vec = alg.mul_vec(vec, alpha_g)
            cols.append(vec)
    # cols were produced in (b, a) loop order which matches idx(a, b) = b*n + a
    antipode = Matrix.from_cols(domain, cols, dim)

    return build_hopf(alg, tuple(comult), counit, antipode)


def dual(h):
    """Dual Hopf algebra on the dual basis.

    Multiplication is the transpose of the comultiplication, and so on;
    verify_hopf is re-run on the result.
    """
    dom = h.domain
    if not dom.is_field:
        raise UnsupportedDomainError("dual needs a field domain")
    n = h.dim
    labels = tuple(f"{lab}*" for lab in h.labels)
    mult = tuple(
        tuple(tuple(h.comult[k][i][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    unit = tuple(h.counit)
    # verify_hopf in build_hopf below runs the algebra axiom scans
    alg = AlgebraData._unchecked(dom, n, labels, mult, unit)
    comult = tuple(
        tuple(tuple(h.algebra.mult[j][k][i] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    counit = tuple(h.algebra.unit)
    antipode = h.antipode.transpose()
    return build_hopf(alg, comult, counit, antipode)


# ---------------------------------------------------------------------------
# integrals


@dataclass(frozen=True)
class IntegralSpace:
    side: str
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)


def _integral_space(h, side):
    dom = h.domain
    linalg.require_field(dom, "integral computation")
    n = h.dim
    blocks = []
    for a in range(n):
        basis_a = linalg.unit_vec(dom, n, a)
        if side == "left":
            mult = h.algebra.left_mult_matrix(basis_a)
        else:
            mult = h.algebra.right_mult_matrix(basis_a)
        shift = Matrix.identity(dom, n).scale(h.counit[a])
        blocks.append(mult - shift)
    basis = linalg.kernel_basis(linalg.stack(blocks))
    if len(basis) != 1:
        raise InconsistencyError(
            f"{side} integral space has dimension {len(basis)}, not 1; "
            "the Hopf data is corrupted"
        )
    return IntegralSpace(side, basis)


def left_integrals(h):
    """Basis of {t : h t = counit(h) t}; one-dimensional over a field."""
    return _integral_space(h, "left")


def right_integrals(h):
    return _integral_space(h, "right")


def is_semisimple(h):
    """Larson-Sweedler / Maschke criterion: counit of the integral is nonzero."""
    integral = left_integrals(h).basis[0]
    return h.counit_vec(integral) != h.domain.zero


def antipode_bijective(h):
    if h.domain.is_field:
        return linalg.rank(h.antipode) == h.dim
    return abs(linalg.det(h.antipode)) == 1


def is_local(h):
    """Whether the counit kernel is nilpotent (checked by powering).

    For finite-dimensional pointed cocommutative Hopf algebras this
    matches localness of the underlying algebra.
    """
    dom = h.domain
    linalg.require_field(dom, "localness check")
    eps = Matrix(dom, [list(h.counit)])
    radical = list(linalg.kernel_basis(eps))
    current = radical
    for _ in range(h.dim + 1):
        if not current:
            return True
        products = []
        for u in current:
            for v in radical:
                products.append(h.algebra.mul_vec(u, v))
        nxt = list(linalg.echelon_basis(dom, products))
        if linalg.span_eq(dom, nxt, current):
            return False
        current = nxt
    return not current
