"""Independent oracles for the test suite.

These deliberately avoid the elimination routines of the package:
determinants come from the Leibniz permutation expansion, ranks from
the largest nonvanishing minor, and equation solving from brute
enumeration where feasible.  Slow but obviously correct at desk scale.
"""

from fractions import Fraction
from itertools import combinations, permutations

from hopfgal.errors import FormatError
from hopfgal.hopf import AlgebraData
from hopfgal.linalg import sparse_entries


def leibniz_det(rows):
    """Permutation-expansion determinant over exact scalars (n <= 7)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        term = sign
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def minor_rank(rows, nonzero=lambda v: v != 0):
    """Rank as the size of the largest minor with nonvanishing determinant."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for size in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), size):
            for cs in combinations(range(ncols), size):
                minor = [[rows[i][j] for j in cs] for i in rs]
                if nonzero(leibniz_det(minor)):
                    return size
    return 0


def trial_division_is_prime(n):
    """Primality by trial division up to the square root (small n only)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mod_p_nonzero(p):
    return lambda v: v % p != 0


def brute_kernel_dim_fp(rows, p, ncols):
    """Kernel dimension over F_p by enumerating all vectors (tiny cases)."""
    count = 0
    total = p ** ncols
    for code in range(total):
        vec = []
        c = code
        for _ in range(ncols):
            c, r = divmod(c, p)
            vec.append(r)
        if all(sum(row[j] * vec[j] for j in range(ncols)) % p == 0 for row in rows):
            count += 1
    # count = p^dim
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


def frac(a, b=1):
    return Fraction(a, b)


def dense_tensor_from_triples(domain, shape, triples):
    """Dense nested tuple from sparse entries (i_1, .., i_k, coeff).

    ``shape`` holds one bound per axis; an index at or past the bound of
    its own axis is a format error.  The reference for the canonical
    sparse tensors of :func:`hopfgal.hopf.sparse_tensor`.
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


def tensor_square_algebra(alg):
    """The algebra A (x) A on the lexicographic product basis, as a full table.

    Every product of two basis elements is computed as a dense vector of
    length dim(A)^2, dim(A)^6 cells in all; keep dim(A) <= 16.
    """
    dom = alg.domain
    n = alg.dim
    dim = n * n
    mult = [[None] * dim for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    out = [dom.zero] * dim
                    for u, w1 in alg.mult[a][c]:
                        for v, w2 in alg.mult[b][d]:
                            out[u * n + v] = dom.add(out[u * n + v], dom.mul(w1, w2))
                    mult[a * n + b][c * n + d] = tuple(sparse_entries(out, dom.zero))
    unit = [dom.zero] * dim
    for i, a in enumerate(alg.unit):
        for j, b in enumerate(alg.unit):
            unit[i * n + j] = dom.mul(a, b)
    labels = tuple(
        f"{alg.labels[i]}(x){alg.labels[j]}" for i in range(n) for j in range(n)
    )
    # associativity is inherited from alg, so the axiom scan is skipped
    return AlgebraData._unchecked(dom, dim, labels, tuple(tuple(r) for r in mult), tuple(unit))


def dense_product(alg, u, v):
    """u * v in alg for dense vectors u and v, summed term by term."""
    dom = alg.domain
    out = [dom.zero] * alg.dim
    for i, a in sparse_entries(u, dom.zero):
        for j, b in sparse_entries(v, dom.zero):
            c = dom.mul(a, b)
            for k, w in alg.mult[i][j]:
                out[k] = dom.add(out[k], dom.mul(c, w))
    return tuple(out)
