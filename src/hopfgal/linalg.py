"""Exact scalar domains and dense linear algebra.

Scalars live in one of three domains: the rationals, a prime field, or
the integers.  Rationals are `fractions.Fraction` (always reduced with
positive denominator), prime-field elements are ints in ``[0, p)`` and
integers are arbitrary-precision ints.  Floating point is banned
repository-wide; every routine below is exact.

Row reduction uses one fixed pivoting rule (first nonzero column,
topmost row, pivot normalized to 1 over a field) so that kernel bases,
echelon forms and normal forms are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DomainMismatchError,
    ShapeError,
    SingularMatrixError,
    UnsupportedDomainError,
)


# ---------------------------------------------------------------------------
# scalar domains


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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

    def is_zero(self, a):
        return a == self.zero

    def __repr__(self):
        return self.name


class RationalField(Domain):
    is_field = True
    characteristic = 0
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, value):
        if isinstance(value, float):
            raise UnsupportedDomainError("floating point is not allowed")
        return Fraction(value)

    def parse(self, text):
        return Fraction(text)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return Fraction(1) / a


class PrimeField(Domain):
    is_field = True
    name = "Fp"

    def __init__(self, p):
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
    """Immutable dense matrix over one scalar domain.

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

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def is_zero(self):
        z = self.domain.zero
        return all(v == z for row in self.rows for v in row)

    def is_square(self):
        return self.nrows == self.ncols

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
        add, mul, zero = dom.add, dom.mul, dom.zero
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        brows = other.rows
        for i, row in enumerate(self.rows):
            out_i = out[i]
            for k, a in enumerate(row):
                if a == zero:
                    continue
                for j, b in enumerate(brows[k]):
                    if b != zero:
                        out_i[j] = add(out_i[j], mul(a, b))
        return Matrix._make(dom, out, other.ncols)

    def apply(self, vec):
        """Matrix-vector product; vec has length ncols."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length mismatch")
        dom = self.domain
        add, mul, zero = dom.add, dom.mul, dom.zero
        out = []
        for row in self.rows:
            acc = zero
            for a, b in zip(row, vec):
                if a != zero and b != zero:
                    acc = add(acc, mul(a, dom.normalize(b)))
            out.append(acc)
        return tuple(out)

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

    def over(self, domain):
        """Reinterpret entries in another domain (e.g. lift Z to Q)."""
        return Matrix(domain, self.rows)

    def stack_below(self, other):
        return stack([self, other])

    def stack_right(self, other):
        self._check_domain(other)
        if self.nrows != other.nrows:
            raise ShapeError("row count mismatch")
        return Matrix._make(
            self.domain, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )


def on_slot(domain, left, a, right):
    """I_left (x) a (x) I_right, built by index arithmetic.

    This is the one place that fixes the slot layout of tensor
    operators: flattening is lexicographic with the left slot slowest,
    so column (l, j, r) of the result is column j of a placed at rows
    (l, i, r).
    """
    zero = domain.zero
    ncols = left * a.ncols * right
    rows = []
    for l in range(left):
        for arow in a.rows:
            placed = [((l * a.ncols + j) * right, v) for j, v in enumerate(arow) if v != zero]
            for r in range(right):
                row = [zero] * ncols
                for base, v in placed:
                    row[base + r] = v
                rows.append(row)
    return Matrix._make(domain, rows, ncols)


def combination(domain, coeffs, mats, nrows, ncols):
    """Sum of c_k * mats[k] over the nonzero c_k; the zero matrix when none."""
    zero, add, mul = domain.zero, domain.add, domain.mul
    rows = [[zero] * ncols for _ in range(nrows)]
    for c, m in zip(coeffs, mats):
        if c == zero:
            continue
        for out, mrow in zip(rows, m.rows):
            for j, v in enumerate(mrow):
                if v != zero:
                    out[j] = add(out[j], mul(c, v))
    return Matrix._make(domain, rows, ncols)


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
# field elimination


def rref(m):
    """Reduced row echelon form with the canonical pivot rule.

    Returns (echelon Matrix, tuple of pivot columns).
    """
    require_field(m.domain, "row reduction")
    dom = m.domain
    zero = dom.zero
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        sel = None
        for r in range(pr, m.nrows):
            if rows[r][pc] != zero:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv_p = dom.inv(rows[pr][pc])
        rows[pr] = [dom.mul(inv_p, v) for v in rows[pr]]
        for r in range(m.nrows):
            if r != pr and rows[r][pc] != zero:
                f = rows[r][pc]
                rows[r] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Matrix._make(dom, rows, m.ncols), tuple(pivots)


def rank(m):
    """Rank over a field via exact Gaussian elimination."""
    _, pivots = rref(m)
    return len(pivots)


def kernel_basis(m):
    """Canonical echelon basis of the kernel of a field-domain map."""
    require_field(m.domain, "kernel computation")
    dom = m.domain
    R, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    vecs = []
    for f in free:
        v = [dom.zero] * m.ncols
        v[f] = dom.one
        for i, p in enumerate(pivots):
            v[p] = dom.neg(R.rows[i][f])
        vecs.append(tuple(v))
    return echelon_basis(dom, vecs)


def echelon_basis(domain, vectors):
    """Canonical (RREF) basis of the span of the given vectors."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return ()
    R, pivots = rref(Matrix(domain, vectors))
    return tuple(R.rows[i] for i in range(len(pivots)))


def column_space_basis(m):
    """Canonical echelon basis of the column span (vectors of length nrows)."""
    return echelon_basis(m.domain, [m.col(j) for j in range(m.ncols)])


def in_span(domain, basis, vec):
    """Membership of vec in the span of an echelonized basis."""
    vec = [domain.normalize(v) for v in vec]
    for b in basis:
        lead = next((j for j, x in enumerate(b) if x != domain.zero), None)
        if lead is None:
            continue
        if vec[lead] != domain.zero:
            f = domain.div(vec[lead], b[lead])
            vec = [domain.sub(a, domain.mul(f, c)) for a, c in zip(vec, b)]
    return all(v == domain.zero for v in vec)


def span_le(domain, basis_a, basis_b):
    """Whether span(basis_a) is contained in span(basis_b)."""
    return all(in_span(domain, basis_b, v) for v in basis_a)


def span_eq(domain, basis_a, basis_b):
    return echelon_basis(domain, basis_a) == echelon_basis(domain, basis_b)


def invert(m):
    """Exact two-sided inverse of a square full-rank field matrix."""
    require_field(m.domain, "inversion")
    if not m.is_square():
        raise ShapeError("only square matrices can be inverted")
    aug = m.stack_right(Matrix.identity(m.domain, m.nrows))
    R, pivots = rref(aug)
    r = sum(1 for p in pivots if p < m.ncols)
    if r < m.ncols:
        raise SingularMatrixError(f"matrix of rank {r} < {m.ncols} is singular", r)
    return Matrix._make(m.domain, [row[m.ncols:] for row in R.rows], m.ncols)


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is canonical.
    """
    require_field(m.domain, "linear solve")
    if len(b) != m.nrows:
        raise ShapeError("right-hand side length mismatch")
    dom = m.domain
    aug = m.stack_right(Matrix.from_cols(dom, [b], m.nrows))
    R, pivots = rref(aug)
    if any(p == m.ncols for p in pivots):
        return None
    x = [dom.zero] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = R.rows[i][m.ncols]
    return tuple(x)


def det(m):
    """Exact determinant; integer matrices give an int."""
    if not m.is_square():
        raise ShapeError("determinant of a non-square matrix")
    dom = m.domain
    if dom.is_field:
        work = [list(r) for r in m.rows]
        n = m.nrows
        result = dom.one
        for c in range(n):
            sel = next((r for r in range(c, n) if work[r][c] != dom.zero), None)
            if sel is None:
                return dom.zero
            if sel != c:
                work[c], work[sel] = work[sel], work[c]
                result = dom.neg(result)
            result = dom.mul(result, work[c][c])
            inv_p = dom.inv(work[c][c])
            for r in range(c + 1, n):
                if work[r][c] != dom.zero:
                    f = dom.mul(work[r][c], inv_p)
                    work[r] = [dom.sub(a, dom.mul(f, p)) for a, p in zip(work[r], work[c])]
        return result
    value = det(m.over(QQ))
    return ZZ.normalize(value)


# ---------------------------------------------------------------------------
# integer normal forms


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with g = ax + by, g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _require_integer(m):
    if m.domain is not ZZ and not isinstance(m.domain, IntegerRing):
        raise UnsupportedDomainError("integer normal forms need the Z domain")


def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and h = u @ m.  Pivots are
    positive, entries above each pivot are reduced into [0, pivot), and
    zero rows sit at the bottom, so h is the canonical representative of
    the row span of m over Z.
    """
    _require_integer(m)
    nrows, ncols = m.nrows, m.ncols
    work = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    pr = 0
    for pc in range(ncols):
        sel = next((r for r in range(pr, nrows) if work[r][pc] != 0), None)
        if sel is None:
            continue
        if sel != pr:
            work[pr], work[sel] = work[sel], work[pr]
            u[pr], u[sel] = u[sel], u[pr]
        for r in range(pr + 1, nrows):
            if work[r][pc] == 0:
                continue
            a, b = work[pr][pc], work[r][pc]
            g, x, y = xgcd(a, b)
            aa, bb = a // g, b // g
            # 2x2 unimodular transform [[x, y], [-bb, aa]] on rows pr, r
            row_p, row_r = work[pr], work[r]
            work[pr] = [x * s + y * t for s, t in zip(row_p, row_r)]
            work[r] = [-bb * s + aa * t for s, t in zip(row_p, row_r)]
            urow_p, urow_r = u[pr], u[r]
            u[pr] = [x * s + y * t for s, t in zip(urow_p, urow_r)]
            u[r] = [-bb * s + aa * t for s, t in zip(urow_p, urow_r)]
        if work[pr][pc] < 0:
            work[pr] = [-v for v in work[pr]]
            u[pr] = [-v for v in u[pr]]
        pivot = work[pr][pc]
        for r in range(pr):
            q = work[r][pc] // pivot
            if q:
                work[r] = [a - q * b for a, b in zip(work[r], work[pr])]
                u[r] = [a - q * b for a, b in zip(u[r], u[pr])]
        pr += 1
        if pr == nrows:
            break
    return Matrix._make(ZZ, work, ncols), Matrix._make(ZZ, u, nrows)


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
    """
    _require_integer(m)
    work = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    size = min(nrows, ncols)
    factors = []

    def submatrix_nonzero(t):
        for i in range(t, nrows):
            for j in range(t, ncols):
                if work[i][j]:
                    return i, j
        return None

    t = 0
    while t < size:
        pos = submatrix_nonzero(t)
        if pos is None:
            break
        # move the entry of minimal absolute value to (t, t)
        bi, bj = pos
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = work[i][j]
                if v and abs(v) < abs(work[bi][bj]):
                    bi, bj = i, j
        if bi != t:
            work[t], work[bi] = work[bi], work[t]
        if bj != t:
            for row in work:
                row[t], row[bj] = row[bj], row[t]
        while True:
            pivot = work[t][t]
            # clear column t
            dirty = False
            for i in range(t + 1, nrows):
                if work[i][t]:
                    q = work[i][t] // pivot
                    work[i] = [a - q * b for a, b in zip(work[i], work[t])]
                    if work[i][t]:
                        work[t], work[i] = work[i], work[t]
                        dirty = True
                        break
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, ncols):
                if work[t][j]:
                    q = work[t][j] // pivot
                    for row in work:
                        row[j] -= q * row[t]
                    if work[t][j]:
                        for row in work:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            # enforce divisibility of the remaining block
            pivot = work[t][t]
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if work[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            work[t] = [a + b for a, b in zip(work[t], work[offender])]
        if work[t][t] < 0:
            work[t] = [-v for v in work[t]]
        factors.append(work[t][t])
        t += 1
    while len(factors) < size:
        factors.append(0)
    return tuple(factors)


# vector helpers used across higher modules ---------------------------------


def sparse_entries(vec, zero):
    """Nonzero (index, value) pairs of a coefficient vector."""
    return [(k, c) for k, c in enumerate(vec) if c != zero]


def sparse_sum(domain, terms):
    """Totals of (key, coeff) terms by key, leaving out the keys that sum to zero."""
    zero, add = domain.zero, domain.add
    out = {}
    for key, c in terms:
        out[key] = add(out.get(key, zero), c)
    return {key: c for key, c in out.items() if c != zero}


def vec_scale(domain, c, v):
    return tuple(domain.mul(c, x) for x in v)


def zero_vec(domain, n):
    return (domain.zero,) * n


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
