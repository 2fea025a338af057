"""Exact scalar domains, sparse linear maps and the integer normal forms.

Scalars live in one of three domains: the rationals, a prime field, or
the integers.  Rationals are always `fractions.Fraction` (reduced, with
positive denominator), never ints, so ``/`` stays exact; prime-field
elements are ints in ``[0, p)`` and integers are arbitrary-precision
ints.  `QQ` shares one Fraction per small integer, and it adds,
subtracts and negates integral operands on their numerators as ints, so
sums of the constants 0 and +-1 that most structure tensors hold cost
no gcd and no new object.  Floating point is banned repository-wide;
every routine below is exact.

A linear map over a field is a `ColumnMap`, held by its sparse columns.
`Matrix` is the dense row form of integer matrices, where rows are the
algorithm: the integer normal forms (HNF, SNF) and `det`.  The library
builds no `Matrix` over a field; the field routines still accept one,
read through its rows.

Over a field there is one row reduction, `rref`: it reduces the sparse
rows of a ColumnMap or a Matrix to the reduced row echelon form, and
rank, kernels, echelon bases, solving and inversion all read its result.
It runs in two passes.  `echelon_insert` reduces each incoming row by
the stored pivots it meets, in increasing column order, and stores it
in echelon form; no stored row is touched again.  One back-substitution
from the highest pivot down then clears the pivot columns, each row
visiting only the pivot columns it holds.  So a system whose rows stay
sparse is eliminated in time about linear in its nonzeros.  The reduced
form is unique, so kernel and echelon bases are canonical.

Over Z there is one row reduction too, behind `hermite_normal_form`:
Euclid's algorithm down each column, by floor division, with the
transform carried along as extra columns where it is read
(`hermite_basis` and the Smith form reduce without it).  The Hermite
form is unique; the floor remainders keep the working entries far
smaller than 2 x 2 extended-gcd transforms do, under which random
32 x 32 matrices with one-digit entries took from under a second to
minutes.  `smith_normal_form` alternates Hermite forms of m and of its
transpose until m is diagonal (Kannan and Bachem), then orders the
diagonal into invariant factors by gcd and lcm.  `det` is Bareiss's
fraction-free elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import (
    DomainMismatchError,
    ShapeError,
    SingularMatrixError,
    UnsupportedDomainError,
)


# ---------------------------------------------------------------------------
# scalar domains


# Miller-Rabin with the prime bases 2..41 decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin test; exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Domain:
    """Arithmetic for one scalar domain; values are Fraction or int."""

    is_field = False
    characteristic = 0
    name = "?"

    def normalize(self, value):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def format(self, value):
        return str(value)

    # Fraction and int share operators, so the generic ring ops suffice
    # everywhere except prime fields, which reduce mod p.
    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        raise UnsupportedDomainError(f"no division in {self.name}")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __repr__(self):
        return self.name


# One shared Fraction per small integer, like CPython's small-int cache:
# every integral Q value in this range that QQ returns is the table's
# object, so tuple and dict comparisons of such values stop at the
# identity test instead of calling Fraction.__eq__.
_SMALL_BOUND = 256
_SMALL = tuple(Fraction(n) for n in range(-_SMALL_BOUND, _SMALL_BOUND + 1))


def _integral(n):
    """The Fraction n for an int n: the table's object when n is small."""
    if -_SMALL_BOUND <= n <= _SMALL_BOUND:
        return _SMALL[n + _SMALL_BOUND]
    return Fraction(n)


def _shared(x):
    """The Fraction x, as the table's object when it is a small integer."""
    if x._denominator == 1 and -_SMALL_BOUND <= x._numerator <= _SMALL_BOUND:
        return _SMALL[x._numerator + _SMALL_BOUND]
    return x


class RationalField(Domain):
    """Q: values are always reduced `Fraction`s.  Sums, differences,
    products and negatives of integral operands take an int path (no gcd,
    no normalizing constructor); every small integral result is the shared
    table object, and raw ints passed in are read as the Fractions they
    equal."""

    is_field = True
    characteristic = 0
    name = "Q"
    zero = _SMALL[_SMALL_BOUND]
    one = _SMALL[_SMALL_BOUND + 1]

    def normalize(self, value):
        if type(value) is Fraction:
            return _shared(value)
        if type(value) is int:
            return _integral(value)
        if isinstance(value, float):
            raise UnsupportedDomainError("floating point is not allowed")
        return _shared(Fraction(value))

    def parse(self, text):
        return _shared(Fraction(text))

    def add(self, a, b):
        try:
            if a._denominator == 1 == b._denominator:
                return _integral(a._numerator + b._numerator)
        except AttributeError:
            return self.add(self.normalize(a), self.normalize(b))
        return _shared(a + b)

    def sub(self, a, b):
        try:
            if a._denominator == 1 == b._denominator:
                return _integral(a._numerator - b._numerator)
        except AttributeError:
            return self.sub(self.normalize(a), self.normalize(b))
        return _shared(a - b)

    def mul(self, a, b):
        try:
            if a._denominator == 1 == b._denominator:
                return _integral(a._numerator * b._numerator)
        except AttributeError:
            return self.mul(self.normalize(a), self.normalize(b))
        return _shared(a * b)

    def neg(self, a):
        try:
            if a._denominator == 1:
                return _integral(-a._numerator)
        except AttributeError:
            return self.neg(self.normalize(a))
        return -a

    def inv(self, a):
        a = self.normalize(a)
        if a._numerator == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        if a._denominator == 1 and a._numerator in (1, -1):
            return a
        return _shared(Fraction(a._denominator, a._numerator))


class PrimeField(Domain):
    is_field = True
    name = "Fp"

    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise UnsupportedDomainError(
                f"p = {p} is too large: primality is decided only below {PRIME_BOUND}"
            )
        if not _is_prime(p):
            raise UnsupportedDomainError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def normalize(self, value):
        if isinstance(value, Fraction):
            num = value.numerator % self.p
            den = value.denominator % self.p
            return self.div(num, den)
        if isinstance(value, float):
            raise UnsupportedDomainError("floating point is not allowed")
        return int(value) % self.p

    def parse(self, text):
        return self.normalize(Fraction(text))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class IntegerRing(Domain):
    is_field = False
    characteristic = 0
    name = "Z"
    zero = 0
    one = 1

    def normalize(self, value):
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise UnsupportedDomainError(f"{value} is not an integer")
            return int(value)
        if isinstance(value, float):
            raise UnsupportedDomainError("floating point is not allowed")
        return int(value)

    def parse(self, text):
        return self.normalize(Fraction(text))

    def inv(self, a):
        if a in (1, -1):
            return a
        raise UnsupportedDomainError(f"{a} is not a unit in Z")


QQ = RationalField()
ZZ = IntegerRing()
_PRIME_FIELDS = {}


def GF(p):
    """The prime field with p elements (cached)."""
    field = _PRIME_FIELDS.get(p)
    if field is None:
        field = _PRIME_FIELDS[p] = PrimeField(p)
    return field


def require_field(domain, what="this operation"):
    if not domain.is_field:
        raise UnsupportedDomainError(
            f"{what} needs a field, not {domain.name}; use the integer "
            "normal-form routines for Z"
        )


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    """Immutable dense matrix over one scalar domain: the row form of the
    integer normal forms and `det`.

    Rows are tuples; ``nrows`` is the codomain dimension and ``ncols``
    the domain dimension of the linear map the matrix represents.
    """

    __slots__ = ("domain", "nrows", "ncols", "rows")

    def __init__(self, domain, rows):
        rows = tuple(tuple(domain.normalize(v) for v in row) for row in rows)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
        self.domain = domain
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # construction helpers -------------------------------------------------

    @classmethod
    def _make(cls, domain, rows, ncols=None):
        """Internal: wrap already-normalized rows without rescanning."""
        m = object.__new__(cls)
        rows = tuple(tuple(r) for r in rows)
        m.domain = domain
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else (ncols or 0)
        return m

    @classmethod
    def identity(cls, domain, n):
        one, zero = domain.one, domain.zero
        return cls._make(domain, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, domain, nrows, ncols):
        zero = domain.zero
        return cls._make(domain, [[zero] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_cols(cls, domain, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ShapeError("need nrows for an empty column list")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise ShapeError("ragged columns")
        return cls(domain, [[c[i] for c in cols] for i in range(nrows)])

    @classmethod
    def from_entries(cls, domain, nrows, ncols, terms):
        """Sum of ((row, col), coeff) terms; the coefficients must already be
        domain values, so nothing is normalized again."""
        add = domain.add
        rows = [[domain.zero] * ncols for _ in range(nrows)]
        for (i, j), c in terms:
            rows[i][j] = add(rows[i][j], c)
        return cls._make(domain, rows, ncols)

    # basic queries ---------------------------------------------------------

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.domain == other.domain
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.domain.format(v) for v in row) for row in self.rows)
        return f"Matrix({self.domain.name}, {self.nrows}x{self.ncols}: {body})"

    # arithmetic ------------------------------------------------------------

    def _check_domain(self, other):
        if self.domain != other.domain:
            raise DomainMismatchError(f"{self.domain.name} vs {other.domain.name}")

    def __add__(self, other):
        self._check_domain(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("addition shape mismatch")
        add = self.domain.add
        return Matrix._make(
            self.domain,
            [
                [add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.domain.neg
        return Matrix._make(self.domain, [[neg(v) for v in row] for row in self.rows], self.ncols)

    def scale(self, c):
        c = self.domain.normalize(c)
        mul = self.domain.mul
        return Matrix._make(self.domain, [[mul(c, v) for v in row] for row in self.rows], self.ncols)

    def __matmul__(self, other):
        self._check_domain(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        dom = self.domain
        add, mul = dom.add, dom.mul
        out = [[dom.zero] * other.ncols for _ in range(self.nrows)]
        brows = other.rows
        for i, row in enumerate(self.rows):
            out_i = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                for j, b in enumerate(brows[k]):
                    if b:
                        out_i[j] = add(out_i[j], mul(a, b))
        return Matrix._make(dom, out, other.ncols)

    def transpose(self):
        if not self.rows:
            return Matrix.zeros(self.domain, self.ncols, self.nrows)
        return Matrix._make(self.domain, list(zip(*self.rows)), self.nrows)

    def kron(self, other):
        """Kronecker product, left factor index varying slowest."""
        self._check_domain(other)
        dom = self.domain
        mul, zero = dom.mul, dom.zero
        out = []
        for arow in self.rows:
            for brow in other.rows:
                row = []
                for a in arow:
                    if a == zero:
                        row.extend([zero] * len(brow))
                    else:
                        row.extend(mul(a, b) for b in brow)
                out.append(row)
        if not out:
            return Matrix.zeros(dom, self.nrows * other.nrows, self.ncols * other.ncols)
        return Matrix._make(dom, out, self.ncols * other.ncols)


def stack(matrices):
    """Vertical stack of matrices with equal column counts, in one pass."""
    matrices = list(matrices)
    first = matrices[0]
    for m in matrices[1:]:
        first._check_domain(m)
        if m.ncols != first.ncols:
            raise ShapeError("column count mismatch")
    return Matrix._make(first.domain, [row for m in matrices for row in m.rows], first.ncols)


# ---------------------------------------------------------------------------
# sparse linear maps


class ColumnMap:
    """Immutable sparse linear map over one scalar domain, held by columns.

    ``cols[j]`` is the canonical tuple of the (row, coeff) pairs of column
    j: rows ascending, no zero coefficient, coefficients already domain
    values.  That is the stored form of the structure constants
    (`hopf.sparse_tensor`), so two maps are equal exactly when their
    column tuples are.  Every domain here has no zero divisors, so a
    nonzero multiple of a canonical column is canonical.
    """

    __slots__ = ("domain", "nrows", "ncols", "cols")

    def __init__(self, domain, nrows, cols):
        self.domain = domain
        self.nrows = nrows
        # callers pass lists or tuples, not iterators: CPython resizes a tuple
        # built from an iterator of unknown length and frees it onto the
        # free list of its final size, which only a full collection empties
        self.cols = tuple(cols)
        self.ncols = len(self.cols)

    @classmethod
    def identity(cls, domain, n):
        one = domain.one
        return cls(domain, n, [((j, one),) for j in range(n)])

    @classmethod
    def from_cols(cls, domain, nrows, cols):
        """The map whose column j is the dense vector cols[j] of length nrows."""
        out = []
        for col in cols:
            if len(col) != nrows:
                raise ShapeError("column length mismatch")
            values = map(domain.normalize, col)
            out.append(tuple((i, v) for i, v in enumerate(values) if v))
        return cls(domain, nrows, out)

    @classmethod
    def from_dense(cls, m):
        return cls.from_cols(m.domain, m.nrows, m.cols())

    @classmethod
    def from_entries(cls, domain, nrows, ncols, terms):
        """Sum ((row, col), coeff) terms of domain values into a map."""
        cols = [[] for _ in range(ncols)]
        for (i, j), c in sparse_sum(domain, terms).items():
            cols[j].append((i, c))
        return cls(domain, nrows, [tuple(sorted(col)) for col in cols])

    @classmethod
    def combination(cls, domain, coeffs, maps, nrows, ncols):
        """Sum of c_k * maps[k] over the nonzero c_k; the zero map when none.
        One term keeps its map's columns, scaled unless c_k is one."""
        mul = domain.mul
        terms = [(c, m.cols) for c, m in zip(coeffs, maps) if c]
        if not terms:
            return cls(domain, nrows, [()] * ncols)
        if len(terms) == 1:
            (c, cols), = terms
            return cls(domain, nrows, cols if c == domain.one else [
                tuple((i, mul(c, a)) for i, a in col) for col in cols])
        return cls(domain, nrows, [
            _column(domain, ((i, mul(c, a)) for c, cols in terms for i, a in cols[j]))
            for j in range(ncols)
        ])

    def to_dense(self):
        """The dense Matrix of the map."""
        return Matrix.from_entries(
            self.domain, self.nrows, self.ncols,
            (((i, j), c) for j, col in enumerate(self.cols) for i, c in col),
        )

    def col(self, j):
        """Column j as a dense vector of length nrows."""
        return _dense(self.domain, self.nrows, [self.cols[j]])[0]

    def transpose(self):
        """The transposed map: its columns are the rows of this one."""
        rows = [[] for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, c in col:
                rows[i].append((j, c))
        return ColumnMap(self.domain, self.ncols, [tuple(row) for row in rows])

    def __eq__(self, other):
        return (
            isinstance(other, ColumnMap)
            and self.domain == other.domain
            and self.nrows == other.nrows
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.nrows, self.cols))

    def __repr__(self):
        return f"ColumnMap({self.domain.name}, {self.nrows}x{self.ncols}: {self.cols})"

    def __matmul__(self, other):
        """self after other: column j is the sum of b * self.cols[k] over (k, b)
        in other.cols[j], so a one-entry column costs one lookup, and a
        coefficient-one one gives self's column object itself."""
        if self.domain != other.domain:
            raise DomainMismatchError(f"{self.domain.name} vs {other.domain.name}")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        dom = self.domain
        mul, one = dom.mul, dom.one
        left = self.cols
        out = []
        for col in other.cols:
            if len(col) == 1:
                k, b = col[0]
                out.append(left[k] if b == one else tuple((i, mul(b, a)) for i, a in left[k]))
            elif col:
                out.append(_column(dom, ((i, mul(b, a)) for k, b in col for i, a in left[k])))
            else:
                out.append(())
        return ColumnMap(dom, self.nrows, out)

    def apply(self, vec):
        """Image of a vector of domain values, as a tuple of length nrows."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length mismatch")
        dom = self.domain
        add, mul = dom.add, dom.mul
        out = [dom.zero] * self.nrows
        for x, col in zip(vec, self.cols):
            if x:
                for i, a in col:
                    out[i] = add(out[i], mul(a, x))
        return tuple(out)


def _column(domain, terms):
    """Canonical column of (row, coeff) terms: repeats summed, zeros dropped."""
    return tuple(sorted(sparse_sum(domain, terms).items()))


# ---------------------------------------------------------------------------
# field elimination


def rref(m):
    """Reduced row echelon form of a field-domain map, as {pivot: {col: coeff}}.

    m is a Matrix or a ColumnMap; its rows go into an echelon form, one
    `echelon_insert` each, and one back-substitution then reduces it:
    from the highest pivot down, each row subtracts the reduced rows of
    the pivot columns it holds.  A reduced row is 0 at every other
    pivot, so those subtractions add no pivot column, and each row is
    reduced once.  The reduced echelon form is unique, so the result
    does not depend on the order of the rows.
    """
    domain = m.domain
    require_field(domain, "row reduction")
    if isinstance(m, ColumnMap):
        rows = m.transpose().cols
    else:
        rows = (enumerate(row) for row in m.rows)
    pivots = {}
    for terms in rows:
        echelon_insert(domain, pivots, terms)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in [c for c in row if c in pivots and c != p]:
            _subtract(domain, row, row[q], pivots[q])
    return pivots


def _subtract(domain, row, f, other):
    """row -= f * other, in place, dropping the entries that cancel."""
    sub, mul, zero = domain.sub, domain.mul, domain.zero
    for c, v in other.items():
        x = sub(row.get(c, zero), mul(f, v))
        if x:
            row[c] = x
        else:
            del row[c]


def echelon_insert(domain, pivots, terms):
    """Add the row of (col, coeff) terms to an echelon form in place;
    returns the row's new pivot, or None when the row lies in the span.

    ``pivots`` maps each pivot to its row {col: coeff}, which is 1 at
    its pivot, its lowest column, and 0 at every pivot stored before
    it.  The new row is reduced by the stored pivots it meets in
    increasing column order, popped from a heap: the row of pivot p
    adds columns above p only, so each pivot is met at most once, and
    the new pivot columns it adds join the heap.  What is left is scaled
    to 1 at its lowest column and stored; no earlier row is cleared, so
    the stored rows are an echelon basis of the span and `rref`
    back-substitutes once at the end.
    """
    r = {c: v for c, v in terms if v}
    heap = [c for c in r if c in pivots]
    if heap:
        heapify(heap)
        sub, mul, zero = domain.sub, domain.mul, domain.zero
        while heap:
            p = heappop(heap)
            f = r.get(p)
            if f is None:  # pushed twice, already cleared
                continue
            for c, v in pivots[p].items():
                x = r.get(c)
                if x is None:
                    r[c] = sub(zero, mul(f, v))
                    if c in pivots:
                        heappush(heap, c)
                else:
                    x = sub(x, mul(f, v))
                    if x:
                        r[c] = x
                    else:
                        del r[c]
    if not r:
        return None
    p = min(r)
    inv, mul = domain.inv(r[p]), domain.mul
    pivots[p] = {c: mul(inv, v) for c, v in r.items()}
    return p


def rank(m):
    """Rank of a field-domain Matrix or ColumnMap."""
    return len(rref(m))


def _dense(domain, ncols, rows):
    """Sparse rows of (col, coeff) pairs as dense tuples of length ncols."""
    zero = domain.zero
    out = []
    for row in rows:
        vec = [zero] * ncols
        for c, v in row:
            vec[c] = v
        out.append(tuple(vec))
    return tuple(out)


def _echelon_rows(echelon):
    """The rows of an `rref` result by ascending pivot, as (col, coeff) pairs."""
    return [tuple(sorted(echelon[p].items())) for p in sorted(echelon)]


def kernel_map(m):
    """Canonical echelon basis of the kernel of a field-domain map, as the
    columns of a ColumnMap; m is a Matrix or a ColumnMap.

    m is eliminated with its columns in reversed order, so each row R_i
    of the RREF holds its pivot p_i at its highest column and its other
    nonzeros below it, in free columns.  Each free column f gives the
    kernel vector v_f = e_f - sum of R_i[f] e_(p_i), and R_i[f] is
    nonzero only for p_i > f.  So v_f is 1 at its lowest entry f, and
    every other v_g is 0 at f, which is neither g nor a pivot.  The v_f
    by ascending f are therefore the reduced echelon basis of the
    kernel, which is unique, and they need no second elimination.
    """
    dom = m.domain
    require_field(dom, "kernel computation")
    if isinstance(m, Matrix):
        m = ColumnMap.from_dense(m)
    last = m.ncols - 1
    pivots = rref(ColumnMap(dom, m.nrows, m.cols[::-1]))
    free = {f: [(f, dom.one)] for f in range(m.ncols) if last - f not in pivots}
    neg = dom.neg
    for q, row in pivots.items():
        p = last - q
        for c, v in row.items():
            if c != q:
                free[last - c].append((p, neg(v)))
    return ColumnMap(dom, m.ncols, [tuple(sorted(vec)) for vec in free.values()])


def kernel_basis(m):
    """Canonical echelon basis of the kernel of a field-domain map, as vectors."""
    return _dense(m.domain, m.ncols, kernel_map(m).cols)


def echelon_basis(domain, vectors):
    """Canonical (RREF) basis of the span of the given vectors."""
    vectors = list(vectors)
    length = len(vectors[0]) if vectors else 0
    return column_space_basis(ColumnMap.from_cols(domain, length, vectors))


def column_space_basis(m):
    """Canonical echelon basis of the column span (vectors of length nrows);
    m is a Matrix or a ColumnMap."""
    return _dense(m.domain, m.nrows, _echelon_rows(rref(m.transpose())))


def span_eq(domain, basis_a, basis_b):
    return echelon_basis(domain, basis_a) == echelon_basis(domain, basis_b)


def _augmented(m, cols):
    """The ColumnMap [m | cols] of a Matrix or ColumnMap m and extra columns."""
    if isinstance(m, Matrix):
        m = ColumnMap.from_dense(m)
    return ColumnMap(m.domain, m.nrows, m.cols + tuple(cols))


def invert(m):
    """Exact two-sided inverse of a square full-rank field map, as a
    ColumnMap; m is a ColumnMap or a Matrix.

    Row i of the RREF of [m | I] is 1 at pivot i, and its entries past
    column n are row i of the inverse.
    """
    require_field(m.domain, "inversion")
    n = m.ncols
    if m.nrows != n:
        raise ShapeError("only square matrices can be inverted")
    R = rref(_augmented(m, ColumnMap.identity(m.domain, n).cols))
    r = sum(1 for p in R if p < n)
    if r < n:
        raise SingularMatrixError(f"matrix of rank {r} < {n} is singular", r)
    cols = [[] for _ in range(n)]
    for i in range(n):
        for c, v in R[i].items():
            if c >= n:
                cols[c - n].append((i, v))
    return ColumnMap(m.domain, n, [tuple(col) for col in cols])


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent; m is a
    Matrix or a ColumnMap.

    Free variables are set to zero, so the answer is canonical.
    """
    dom = m.domain
    require_field(dom, "linear solve")
    if len(b) != m.nrows:
        raise ShapeError("right-hand side length mismatch")
    b = [dom.normalize(v) for v in b]
    R = rref(_augmented(m, [tuple((i, v) for i, v in enumerate(b) if v)]))
    if m.ncols in R:
        return None
    x = [dom.zero] * m.ncols
    for p, row in R.items():
        x[p] = row.get(m.ncols, dom.zero)
    return tuple(x)


# ---------------------------------------------------------------------------
# integer normal forms


def _require_integer(m):
    if m.domain is not ZZ and not isinstance(m.domain, IntegerRing):
        raise UnsupportedDomainError("integer normal forms need the Z domain")


def _floor_reduce(rows, pivot, pc):
    """Subtract from each row, in place, the floor-quotient multiple of the
    pivot row that leaves row[pc] in [0, pivot[pc]) (or (pivot[pc], 0])."""
    # over the pivot's nonzeros only: the u part of a row holds its own unit
    # entry and those of the rows it took multiples of, so it stays sparse
    terms = [(j, b) for j, b in enumerate(pivot) if b]
    for row in rows:
        if q := row[pc] // pivot[pc]:
            for j, b in terms:
                row[j] -= q * b


def _hermite_reduce(work, ncols):
    """Euclid's algorithm on the rows `work`, in place, which brings their
    first ncols columns to row Hermite form (see `hermite_normal_form`);
    any further columns ride along.  Returns the rank, the number of
    nonzero rows, which come first."""
    nrows, pr = len(work), 0
    for pc in range(ncols):
        while live := [r for r in range(pr, nrows) if work[r][pc]]:
            sel = min(live, key=lambda r: abs(work[r][pc]))
            work[pr], work[sel] = work[sel], work[pr]
            pivot = work[pr]
            if len(live) == 1:
                break
            _floor_reduce(work[pr + 1:], pivot, pc)
        else:
            continue  # no pivot in this column
        if pivot[pc] < 0:
            pivot = work[pr] = [-v for v in pivot]
        _floor_reduce(work[:pr], pivot, pc)
        pr += 1
    return pr


def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and h = u @ m.  Pivots are
    positive, entries above each pivot are reduced into [0, pivot), and
    zero rows sit at the bottom, so h is the canonical representative of
    the row span of m over Z.

    Euclid's algorithm on rows: each column's least nonzero entry at or
    below the pivot row moves up to it, and its floor-quotient multiple
    leaves a remainder in every row below, until one nonzero entry is
    left.  u rides along as ``nrows`` extra columns of the working rows.
    """
    _require_integer(m)
    nrows, ncols = m.nrows, m.ncols
    work = [[*row, *[0] * i, 1, *[0] * (nrows - 1 - i)] for i, row in enumerate(m.rows)]
    _hermite_reduce(work, ncols)
    return (Matrix._make(ZZ, (row[:ncols] for row in work), ncols),
            Matrix._make(ZZ, (row[ncols:] for row in work), nrows))


def hermite_basis(m):
    """The nonzero rows of the Hermite normal form of m, as tuples: the
    canonical basis of its row lattice, reduced without the transform u
    that only `integer_kernel_basis` reads."""
    _require_integer(m)
    work = [list(row) for row in m.rows]
    return tuple(map(tuple, work[:_hermite_reduce(work, m.ncols)]))


def det(m):
    """Determinant of a square integer Matrix, by fraction-free elimination.

    Bareiss (Math. Comp. 1968): step k sets each entry (i, j) below and
    right of the pivot to (a_ij a_kk - a_ik a_kj) / p, where p is the
    previous pivot.  The new entry is a minor of m, so the division is
    exact and every entry stays an int.  A zero pivot is swapped with the
    first nonzero entry below it, which negates the result.
    """
    _require_integer(m)
    n = m.nrows
    if m.ncols != n:
        raise ShapeError("determinant of a non-square matrix")
    work = [list(r) for r in m.rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not work[k][k]:
            sel = next((r for r in range(k + 1, n) if work[r][k]), None)
            if sel is None:
                return 0
            work[k], work[sel] = work[sel], work[k]
            sign = -sign
        pivot, row_k = work[k][k], work[k]
        for row in work[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * row_k[j]) // prev
        prev = pivot
    return sign * work[-1][-1] if n else 1


def integer_kernel_basis(m):
    """Basis of the saturated lattice {x in Z^ncols : m x = 0}."""
    _require_integer(m)
    h, u = hermite_normal_form(m.transpose())
    zero_rows = [i for i in range(h.nrows) if all(v == 0 for v in h.rows[i])]
    return tuple(u.rows[i] for i in zero_rows)


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    The returned tuple has length min(nrows, ncols) with zeros trailing
    for rank deficiency; the cokernel of m is the direct sum of Z/d_i
    plus a free part of rank nrows - rank(m).

    Kannan and Bachem (SIAM J. Comput. 8, 1979): while an entry off the
    diagonal is nonzero, m becomes the transpose of the nonzero rows of
    its row Hermite form.  Each (t, t) pivot can only shrink until its
    row and column clear, so this ends with a diagonal matrix, and
    replacing each pair of diagonal entries with their gcd and lcm keeps
    the cokernel and orders the factors.
    """
    _require_integer(m)
    rows, ncols = [list(row) for row in m.rows], m.ncols
    while any(v for i, row in enumerate(rows) for j, v in enumerate(row) if i != j):
        # the zero rows of the Hermite form hold no invariant factor
        ncols = _hermite_reduce(rows, ncols)
        rows = [list(col) for col in zip(*rows[:ncols])]
    factors = [abs(rows[i][i]) for i in range(min(len(rows), ncols))]
    factors += [0] * (min(m.nrows, m.ncols) - len(factors))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = math.gcd(a, b), math.lcm(a, b)
    return tuple(factors)


# vector helpers used across higher modules ---------------------------------


def sparse_entries(vec, zero):
    """Nonzero (index, value) pairs of a coefficient vector."""
    return [(k, c) for k, c in enumerate(vec) if c != zero]


def sparse_sum(domain, terms):
    """Totals of (key, coeff) terms by key, leaving out the keys that sum to
    zero; coeffs are domain values, so a key's first term is kept as is."""
    add = domain.add
    out = {}
    for key, c in terms:
        out[key] = add(out[key], c) if key in out else c
    return {key: c for key, c in out.items() if c}


def unit_vec(domain, n, i):
    return tuple(domain.one if j == i else domain.zero for j in range(n))


def format_vector(domain, labels, vec):
    """Human form of a coefficient vector, e.g. ``1 + 2*s - x``."""
    parts = []
    for c, label in zip(vec, labels):
        if c == domain.zero:
            continue
        text = domain.format(c)
        if text == "1":
            term = label
        elif text == "-1":
            term = f"-{label}"
        else:
            term = f"{text}*{label}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
