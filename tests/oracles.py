"""Independent oracles for the test suite.

These deliberately avoid the elimination routines of the package:
determinants come from the Leibniz permutation expansion, ranks from
the largest nonvanishing minor, and equation solving from brute
enumeration where feasible.  Slow but obviously correct at desk scale.
"""

from fractions import Fraction
from itertools import combinations, permutations

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


def tensor_square_algebra(alg):
    """The algebra A (x) A on the lexicographic product basis, as a dense table.

    Its multiplication tensor has dim(A)^6 cells; keep dim(A) <= 16.
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
                    for u, w1 in sparse_entries(alg.mult[a][c], dom.zero):
                        for v, w2 in sparse_entries(alg.mult[b][d], dom.zero):
                            out[u * n + v] = dom.add(out[u * n + v], dom.mul(w1, w2))
                    mult[a * n + b][c * n + d] = tuple(out)
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
    """u * v in alg, read from the dense multiplication tensor."""
    dom = alg.domain
    out = [dom.zero] * alg.dim
    for i, a in sparse_entries(u, dom.zero):
        for j, b in sparse_entries(v, dom.zero):
            c = dom.mul(a, b)
            for k, w in sparse_entries(alg.mult[i][j], dom.zero):
                out[k] = dom.add(out[k], dom.mul(c, w))
    return tuple(out)
