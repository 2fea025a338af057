"""Finite-dimensional algebras and Hopf algebras by structure constants.

An algebra is a multiplication tensor plus a unit vector on a labelled
basis; a Hopf algebra adds a comultiplication tensor, a counit vector
and an explicit antipode, a `linalg.ColumnMap`.  Axioms are checked eagerly: algebra
axioms at construction, the full Hopf axiom list through
:func:`verify_hopf` (the builtin constructors and the file loader run
it and refuse failing data).

Structure tensors are stored once, sparse and canonical, as
:func:`sparse_tensor` builds them: mult[i][j] is the tuple of (k, c)
pairs of e_i e_j and comult[i] the tuple of (j, k, c) triples of
Delta(e_i), each sorted by index with zeros dropped; the antipode's
column i holds the (j, c) pairs of alpha(e_i) in the same form.  Unit
and counit are dense coefficient vectors.

Basis order is part of the data.  Tensor-square flattenings are always
lexicographic with the left factor varying slowest.

Integrals are the invariants (:func:`fixed_points`) of the left regular
action, whose tensor is mult itself, and of the right regular action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import (
    AxiomError,
    FormatError,
    InconsistencyError,
    ShapeError,
    UnsupportedDomainError,
)
from .linalg import ColumnMap
from .reporting import CheckResult, VerificationReport


def sparse_tensor(domain, shape, entries, lead):
    """Canonical sparse tensor from entries (i_1, .., i_k, coeff).

    ``shape`` holds one bound per axis; an index at or past the bound of
    its own axis is a format error.  The result is nested tuples over the
    first ``lead`` axes.  Each innermost cell holds the remaining indices
    with their coefficient, sorted by index, with repeated entries summed
    and zeros dropped, so ``==`` decides equality of tensors.
    """
    arity = len(shape)

    def terms():
        for entry in entries:
            if len(entry) != arity + 1:
                raise FormatError(f"tensor entry {entry!r} has wrong length")
            *idx, c = entry
            if any((not isinstance(i, int)) or i < 0 or i >= n for i, n in zip(idx, shape)):
                raise FormatError(f"index out of range in tensor entry {entry!r}")
            yield tuple(idx), domain.normalize(c)

    cells = {}
    for idx, c in sorted(linalg.sparse_sum(domain, terms()).items()):
        cells.setdefault(idx[:lead], []).append(idx[lead:] + (c,))

    def build(prefix):
        if len(prefix) == lead:
            return tuple(cells.get(prefix, ()))
        return tuple(build(prefix + (i,)) for i in range(shape[len(prefix)]))

    return build(())


def matrix_from_triples(domain, n, entries):
    """n x n ColumnMap from entries (i, j, c): column i contains c in row j."""
    return ColumnMap(domain, n, sparse_tensor(domain, (n, n), entries, 1))


# ---------------------------------------------------------------------------
# algebras


@dataclass(frozen=True)
class AlgebraData:
    """Finite algebra: mult[i][j] holds the nonzero (k, c) pairs of e_i * e_j."""

    domain: object
    dim: int
    labels: tuple
    mult: tuple
    unit: tuple

    def __post_init__(self):
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise ShapeError("label or unit length does not match dimension")
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
                for k, w in self.mult[i][j]:
                    out[k] = dom.add(out[k], dom.mul(c, w))
        return tuple(out)

    def is_commutative(self):
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i)
        )

    # axiom scans ----------------------------------------------------------

    def associativity_witness(self):
        dom = self.domain
        mult = self.mult
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    left = [dom.zero] * self.dim
                    for t, c in mult[i][j]:
                        for u, w in mult[t][k]:
                            left[u] = dom.add(left[u], dom.mul(c, w))
                    right = [dom.zero] * self.dim
                    for t, c in mult[j][k]:
                        for u, w in mult[i][t]:
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

    def representation_witness(self, maps):
        """Witness that e_a -> maps[a] is not a unital algebra map, or None.

        maps are square ColumnMaps.  Returns ("unit",) when the unit does
        not act as the identity and (a, b) when e_a e_b does not act as
        maps[a] @ maps[b].
        """
        dom = self.domain
        n = maps[0].nrows
        if ColumnMap.combination(dom, self.unit, maps, n, n) != ColumnMap.identity(dom, n):
            return ("unit",)
        for a in range(self.dim):
            for b in range(self.dim):
                cell = self.mult[a][b]
                coeffs, terms = [c for _, c in cell], [maps[k] for k, _ in cell]
                if ColumnMap.combination(dom, coeffs, terms, n, n) != maps[a] @ maps[b]:
                    return (a, b)
        return None

    def format_element(self, vec):
        return linalg.format_vector(self.domain, self.labels, vec)


def algebra_from_triples(domain, dim, labels, mult_triples, unit):
    mult = sparse_tensor(domain, (dim, dim, dim), mult_triples, 2)
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

    comult[i] holds the nonzero (j, k, c) triples of Delta(e_i), c being
    the coefficient of e_j (x) e_k; counit is a coefficient vector;
    antipode is the ColumnMap whose column i is the image of e_i.  No Hopf
    axioms are enforced here, so tests can build corrupted instances;
    `build_hopf` and every builtin constructor run :func:`verify_hopf`
    and raise on failure.
    """

    algebra: AlgebraData
    comult: tuple
    counit: tuple
    antipode: ColumnMap

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.counit) != n:
            raise ShapeError("counit length mismatch")
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

    def comult_vec(self, vec):
        """Delta of a general element as a dict (j, k) -> coeff."""
        mul, zero = self.domain.mul, self.domain.zero
        return linalg.sparse_sum(
            self.domain,
            (((j, k), mul(a, c)) for i, a in enumerate(vec) if a != zero
             for j, k, c in self.comult[i]),
        )

    def counit_vec(self, vec):
        dom = self.domain
        acc = dom.zero
        for a, e in zip(vec, self.counit):
            acc = dom.add(acc, dom.mul(a, e))
        return acc

    def is_cocommutative(self):
        return all(tuple(sorted((k, j, c) for j, k, c in g)) == g for g in self.comult)

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
        delta = h.comult[i]
        left = linalg.sparse_sum(
            dom, (((a, b, k), mul(c, c2)) for j, k, c in delta for a, b, c2 in h.comult[j])
        )
        right = linalg.sparse_sum(
            dom, (((j, a, b), mul(c, c2)) for j, k, c in delta for a, b, c2 in h.comult[k])
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
        for j, k, c in h.comult[i]:
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
                lhs = linalg.sparse_sum(dom, (
                    ((u, v), mul(a, c)) for k, a in alg.mult[i][j] for u, v, c in h.comult[k]
                ))
                rhs = _square_product(alg, h.comult[i], h.comult[j])
                if lhs != {(u, v): c for u, v, c in rhs}:
                    witness = (i, j)
                    break
                eps = zero
                for k, c in alg.mult[i][j]:
                    eps = dom.add(eps, dom.mul(c, h.counit[k]))
                if eps != dom.mul(h.counit[i], h.counit[j]):
                    witness = (i, j)
                    break
            if witness is not None:
                break
    checks.append(_check("bialgebra", witness))

    # antipode: mu (alpha (x) id) Delta = unit . counit = mu (id (x) alpha) Delta
    witness = None
    alpha, mult = h.antipode.cols, alg.mult
    for i in range(n):
        left = linalg.sparse_sum(dom, (
            (u, mul(mul(c, v), w))
            for j, k, c in h.comult[i] for t, v in alpha[j] for u, w in mult[t][k]
        ))
        right = linalg.sparse_sum(dom, (
            (u, mul(mul(c, v), w))
            for j, k, c in h.comult[i] for t, v in alpha[k] for u, w in mult[j][t]
        ))
        target = linalg.sparse_sum(dom, ((u, mul(h.counit[i], a)) for u, a in enumerate(alg.unit)))
        if left != target or right != target:
            witness = (i,)
            break
    checks.append(_check("antipode", witness))

    return VerificationReport(tuple(checks))


def _square_product(alg, u, v):
    """Product in alg (x) alg of two elements given as (a, b, c) triples.

    Uses (e_a (x) e_b)(e_c (x) e_d) = e_a e_c (x) e_b e_d and returns the
    nonzero (s, t, c) triples of the product, sorted by (s, t).
    """
    mul, mult = alg.domain.mul, alg.mult
    terms = (
        ((s, t), mul(mul(c1, c2), mul(w1, w2)))
        for a, b, c1 in u
        for c, d, c2 in v
        for s, w1 in mult[a][c]
        for t, w2 in mult[b][d]
    )
    return tuple((s, t, c) for (s, t), c in sorted(linalg.sparse_sum(alg.domain, terms).items()))


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
    return build_hopf(
        alg,
        sparse_tensor(domain, (dim, dim, dim), comult, 1),
        tuple(domain.normalize(v) for v in counit),
        matrix_from_triples(domain, dim, antipode),
    )


# ---------------------------------------------------------------------------
# builtin constructors


def check_group_table(table):
    """Validates a multiplication table (identity at 0); returns inverses."""
    n = len(table)
    for i, row in enumerate(table):
        if (not isinstance(row, (list, tuple)) or len(row) != n
                or any(type(v) is not int or v < 0 or v >= n for v in row)):
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
        domain, dim, tuple(labels), sparse_tensor(domain, (dim, dim, dim), mult, 2), unit
    )

    # Delta(g^a x^b) = Delta(g)^a Delta(x)^b, multiplied out in H (x) H
    one = domain.one
    delta_g = [(idx(1, 0), idx(1, 0), one)]
    delta_x = [(idx(0, 1), idx(0, 0), one), (idx(1, 0), idx(0, 1), one)]
    comult = [None] * dim
    delta_ga = ((idx(0, 0), idx(0, 0), one),)
    for a in range(n):
        vec = delta_ga
        for b in range(n):
            comult[idx(a, b)] = vec
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
    antipode = ColumnMap.from_cols(domain, dim, cols)

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
    shape = (n, n, n)
    # e_i* e_j* contains comult[k]'s coefficient of e_i (x) e_j on e_k*
    mult = sparse_tensor(
        dom, shape, ((i, j, k, c) for k, g in enumerate(h.comult) for i, j, c in g), 2
    )
    unit = tuple(h.counit)
    # verify_hopf in build_hopf below runs the algebra axiom scans
    alg = AlgebraData._unchecked(dom, n, labels, mult, unit)
    # Delta(e_i*) contains mult[j][k]'s coefficient of e_i on e_j* (x) e_k*
    comult = sparse_tensor(dom, shape, (
        (i, j, k, c)
        for j, row in enumerate(h.algebra.mult) for k, cell in enumerate(row) for i, c in cell
    ), 1)
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


def fixed_points(h, action):
    """Canonical echelon basis of V^H = {v : e_a v = counit(e_a) v for all a}.

    action[a][m] holds the (t, c) pairs of e_a . e_m.  V^H is the kernel
    of the stacked system of the maps v -> e_a v - counit(e_a) v.
    """
    dom = h.domain
    dim = len(action[0]) if action else 0
    terms = (
        ((a * dim + t, m), c)
        for a, block in enumerate(action) for m, col in enumerate(block) for t, c in col
    )
    shifts = (
        ((a * dim + m, m), dom.neg(e)) for a, e in enumerate(h.counit) if e for m in range(dim)
    )
    stacked = ColumnMap.from_entries(dom, len(action) * dim, dim, itertools.chain(terms, shifts))
    return linalg.kernel_basis(stacked)


def _integral_space(h, side):
    """Integrals are the invariants of H acting on itself: on the left
    by e_a . e_i = e_a e_i, on the right by e_a . e_i = e_i e_a."""
    linalg.require_field(h.domain, "integral computation")
    mult, n = h.algebra.mult, h.dim
    if side == "left":
        action = mult
    else:
        action = tuple(tuple(mult[i][a] for i in range(n)) for a in range(n))
    basis = fixed_points(h, action)
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
    return abs(linalg.det(h.antipode.to_dense())) == 1


def is_local(h):
    """Whether the counit kernel is nilpotent (checked by powering).

    For finite-dimensional pointed cocommutative Hopf algebras this
    matches localness of the underlying algebra.
    """
    dom = h.domain
    linalg.require_field(dom, "localness check")
    eps = ColumnMap(dom, 1, [((0, e),) if e else () for e in h.counit])
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
