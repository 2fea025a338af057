"""Independent oracles for the test suite.

These deliberately avoid the elimination routines of the package:
determinants come from the Leibniz permutation expansion, ranks from
the largest nonvanishing minor, and equation solving from brute
enumeration where feasible.  Over a field, `dense_rref` is a dense
Gauss-Jordan elimination on whole rows, the differential reference for
the package's one sparse-row `linalg.rref`; the dense kernel, echelon
basis, solve and inverse below are read from it.  `general_rref` and
`general_kernel_map` are the sparse elimination with every row on the
general path, the references for the shortcuts `linalg.rref`,
`echelon_insert` and `kernel_map` take on rows that are already reduced.  `dense_apply` and
`dense_antipode_witness` apply and check maps by their dense rows and
columns, the references for the package's sparse `ColumnMap`s.  The
full axiom scans check associativity, coassociativity, the counit
axiom, the bialgebra law and group tables on every basis triple, pair
or row, and `dense_integrals` and
`dense_fixed_points` stack their systems over every basis element: the
references for the package's checks on generating sets.  The comodule law, the
comodule-algebra law, the relative Hopf module law and the closure of
an associated order are checked by full loops; with the algebra axioms,
they are the references for the structures the package derives without
a check (the dual of a Hopf algebra, S#H, the dictionary comodule
algebra).  The faces, degeneracies and the T and bar differentials are
built only here, as dense matrices: the package decides their
identities by lemmas.  `bar_shift_compat` builds from them the
degreewise compatibility of the bar shift that the package takes from
the Morita lemma.
`powered_is_local` powers the counit kernel of every Hopf algebra, the
reference for `hopf.is_local`, which powers only a non-semisimple one.
`dense_galois_j`, `dense_gamma`, `dense_faithful` and
`dense_coinvariants` build the Galois maps, the faithfulness verdict
and the coinvariants from their defining formulas, by dense products.
`taft_by_products` multiplies out the Taft comultiplication and
antipode from the generators, the reference for the closed forms of
`hopf.taft`, and `taft_mult_by_relations` reads each product of the
multiplication off the presentation, the reference for its
multiplication and for taking g and x as its generating set.
`module_algebra_witness` decides the module-algebra law by the full
loop over H and pairs of S, the reference for the package's decision
through the dual coaction on the generators of S.
The `collected_*` functions are the generator forms of the package's
one-pass sums (the tensor coaction, t^(n+1), t_n, the products in A (x) H
and in A), every term summed as the old `linalg.sparse_sum` did.
`ReferenceLattice` holds a
lattice by its canonical generators as the columns of a dense Q-Matrix,
the reference for `lattices.IntegerLattice`, which holds integer
Hermite rows and a scale.  Slow but obviously correct at desk scale.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations, product
from math import gcd

from hopfgal import cocyclic
from hopfgal.errors import FormatError, ShapeError
from hopfgal.linalg import (
    QQ,
    ZZ,
    ColumnMap,
    Matrix,
    hermite_normal_form,
    sparse_entries,
    stack,
    unit_vec,
)


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


# an algebra as its table: mult[i][j] holds the (k, c) pairs of e_i e_j
TableAlgebra = namedtuple("TableAlgebra", "domain dim labels mult unit")


def tensor_square_algebra(alg):
    """The algebra A (x) A on the lexicographic product basis, as a full
    TableAlgebra.

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
    return TableAlgebra(dom, dim, labels, tuple(tuple(r) for r in mult), tuple(unit))


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


def dense_unit_witness(alg):
    """The first j with 1 e_j != e_j or e_j 1 != e_j, by dense products:
    the reference for `AlgebraData.unit_witness`."""
    for j in range(alg.dim):
        e_j = unit_vec(alg.domain, alg.dim, j)
        if not dense_product(alg, alg.unit, e_j) == e_j == dense_product(alg, e_j, alg.unit):
            return (j,)
    return None


def dense_taft_antipode(h, n):
    """The antipode of the Taft algebra h of dimension n^2 as dense columns:
    alpha(g^a x^b) = alpha(x)^b alpha(g)^a, multiplied out by dense products."""
    dom = h.domain
    alpha_g = unit_vec(dom, h.dim, n - 1)
    alpha_x = tuple(dom.neg(dom.one) if k == n + n - 1 else dom.zero for k in range(h.dim))
    cols = []
    for b in range(n):
        for a in range(n):
            vec = h.algebra.unit
            for factor in [alpha_x] * b + [alpha_g] * a:
                vec = dense_product(h.algebra, vec, factor)
            cols.append(vec)
    return cols


def taft_by_products(domain, n, q):
    """The comultiplication cells and antipode columns of the Taft algebra
    T_n(q) in the stored forms of `hopf.taft`, multiplied out from the
    generators one product at a time: Delta(g^a x^b) = Delta(g)^a Delta(x)^b
    in H (x) H and alpha(g^a x^b) = alpha(x)^b alpha(g)^a in H, with
    (g^a x^b)(g^c x^d) = q^(bc) g^(a+c) x^(b+d), 0 once b + d >= n."""
    q, one, dim = domain.normalize(q), domain.one, n * n

    def idx(a, b):
        return b * n + a

    def power(k):
        out = one
        for _ in range(k):
            out = domain.mul(out, q)
        return out

    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for a, b, c, d in product(range(n), repeat=4):
        if b + d < n:
            mult[idx(a, b)][idx(c, d)] = ((idx((a + c) % n, b + d), power(b * c)),)

    def square(u, v):
        return tuple((s, t, c) for (s, t), c in
                     sorted(collected_square_sum(domain, mult, mult, u, v).items()))

    delta_g = ((idx(1, 0), idx(1, 0), one),)
    delta_x = ((idx(0, 1), idx(0, 0), one), (idx(1, 0), idx(0, 1), one))
    alpha_g = ((idx(n - 1, 0), one),)
    alpha_x = ((idx(n - 1, 1), domain.neg(one)),)
    comult, antipode = [None] * dim, [None] * dim
    for a in range(n):
        for b in range(n):
            delta = ((idx(0, 0), idx(0, 0), one),)
            for factor in [delta_g] * a + [delta_x] * b:
                delta = square(delta, factor)
            comult[idx(a, b)] = delta
            alpha = ((idx(0, 0), one),)
            for factor in [alpha_x] * b + [alpha_g] * a:
                alpha = tuple(sorted(collected_product(domain, mult, alpha, factor).items()))
            antipode[idx(a, b)] = alpha
    return tuple(comult), tuple(antipode)


def taft_mult_by_relations(domain, n, q):
    """The multiplication cells of the Taft algebra T_n(q) in the stored
    form of `hopf.taft`, from its presentation alone: e_i e_j, for
    e_i = g^a x^b and e_j = g^c x^d, is the word g^a x^b g^c x^d, read
    letter by letter into a normal form g^s x^t.  A g moves left past
    each of the t letters x before it by xg = q gx, and g^n = 1 and
    x^n = 0 reduce the exponents."""
    q = domain.normalize(q)

    def normal_form(word):
        s, t, coeff = 0, 0, domain.one
        for letter in word:
            if letter == "x":
                t += 1
                if t == n:
                    return ()
            else:
                for _ in range(t):
                    coeff = domain.mul(coeff, q)
                s = (s + 1) % n
        return ((t * n + s, coeff),)

    # basis index b n + a stands for g^a x^b
    basis = [(a, b) for b in range(n) for a in range(n)]
    return tuple(
        tuple(normal_form("g" * a + "x" * b + "g" * c + "x" * d) for c, d in basis)
        for a, b in basis
    )


# full axiom scans ---------------------------------------------------------------
#
# The references for the generating-set reductions of `hopf`: every law is
# checked on every basis pair or triple, in lexicographic order, with dense
# products read off the dense structure tensors.


def _dense_mul(domain, grid, u, v):
    """u * v for dense vectors, from the dense table grid[i][j][k]."""
    out = [domain.zero] * len(grid)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                c = domain.mul(a, b)
                for k, w in enumerate(grid[i][j]):
                    out[k] = domain.add(out[k], domain.mul(c, w))
    return out


def mult_triples(alg):
    """The entries (i, j, k, c) of an algebra's multiplication table."""
    return [(i, j, k, c) for i, row in enumerate(alg.mult) for j, cell in enumerate(row)
            for k, c in cell]


def algebra_axiom_failure(domain, dim, triples, unit):
    """The first algebra axiom the mult entries (i, j, k, c) and unit fail.

    ("associativity", (i, j, k)) for the first triple in lexicographic
    order with (e_i e_j) e_k != e_i (e_j e_k); else ("unit", (j,)) for the
    first j with 1 e_j != e_j or e_j 1 != e_j; else None.
    """
    grid = dense_tensor_from_triples(domain, (dim, dim, dim), triples)
    unit = [domain.normalize(u) for u in unit]
    basis = [list(unit_vec(domain, dim, i)) for i in range(dim)]
    for i, j, k in product(range(dim), repeat=3):
        left = _dense_mul(domain, grid, grid[i][j], basis[k])
        if left != _dense_mul(domain, grid, basis[i], grid[j][k]):
            return ("associativity", (i, j, k))
    for j in range(dim):
        if not _dense_mul(domain, grid, unit, basis[j]) == basis[j] == _dense_mul(
                domain, grid, basis[j], unit):
            return ("unit", (j,))
    return None


def group_associativity_witness(table):
    """The first (i, j, k) with (ij)k != i(jk) in a multiplication table."""
    n = len(table)
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


def _sum(domain, terms):
    total = domain.zero
    for t in terms:
        total = domain.add(total, t)
    return total


def bialgebra_witness(h):
    """The bialgebra witness of `hopf.verify_hopf` from the full loop:
    ("unit",) when Delta(1) != 1 (x) 1 or counit(1) != 1, else the first
    (i, j) with Delta(e_i e_j) != Delta(e_i) Delta(e_j) or
    counit(e_i e_j) != counit(e_i) counit(e_j), else None."""
    dom, n = h.domain, h.dim
    grid = dense_tensor_from_triples(
        dom, (n, n, n), [(i, j, k, c) for i in range(n) for j in range(n)
                         for k, c in h.algebra.mult[i][j]])
    delta = dense_tensor_from_triples(
        dom, (n, n, n), [(i, j, k, c) for i in range(n) for j, k, c in h.comult[i]])

    def comult(vec):
        return [[_sum(dom, (dom.mul(a, delta[t][j][k]) for t, a in enumerate(vec)))
                 for k in range(n)] for j in range(n)]

    def counit(vec):
        return _sum(dom, (dom.mul(a, e) for a, e in zip(vec, h.counit)))

    def square_mul(x, y):
        out = [[dom.zero] * n for _ in range(n)]
        for a, b, c, d in product(range(n), repeat=4):
            if x[a][b] and y[c][d]:
                coeff = dom.mul(x[a][b], y[c][d])
                for s, w1 in enumerate(grid[a][c]):
                    for t, w2 in enumerate(grid[b][d]):
                        out[s][t] = dom.add(out[s][t], dom.mul(coeff, dom.mul(w1, w2)))
        return out

    unit = list(h.algebra.unit)
    if comult(unit) != [[dom.mul(a, b) for b in unit] for a in unit] or counit(unit) != dom.one:
        return ("unit",)
    basis = [list(unit_vec(dom, n, i)) for i in range(n)]
    for i, j in product(range(n), repeat=2):
        if (comult(grid[i][j]) != square_mul(comult(basis[i]), comult(basis[j]))
                or counit(grid[i][j]) != dom.mul(h.counit[i], h.counit[j])):
            return (i, j)
    return None


def _dense_comult(h):
    """Delta as a dense n x n x n grid: delta[i][j][k] is the coefficient of
    e_j (x) e_k in Delta(e_i)."""
    n = h.dim
    return dense_tensor_from_triples(
        h.domain, (n, n, n), [(i, j, k, c) for i in range(n) for j, k, c in h.comult[i]])


def coassociativity_witness(h):
    """The coassociativity witness of `hopf.verify_hopf` from the full loop:
    the first (i,) with (Delta (x) id) Delta(e_i) != (id (x) Delta) Delta(e_i),
    both as dense n x n x n grids, else None."""
    dom, n = h.domain, h.dim
    delta = _dense_comult(h)
    for i in range(n):
        left = [[[dom.zero] * n for _ in range(n)] for _ in range(n)]
        right = [[[dom.zero] * n for _ in range(n)] for _ in range(n)]
        for j, k in product(range(n), repeat=2):
            c = delta[i][j][k]
            if not c:
                continue
            for a, b in product(range(n), repeat=2):
                left[a][b][k] = dom.add(left[a][b][k], dom.mul(c, delta[j][a][b]))
                right[j][a][b] = dom.add(right[j][a][b], dom.mul(c, delta[k][a][b]))
        if left != right:
            return (i,)
    return None


def counit_witness(h):
    """The counit witness of `hopf.verify_hopf` from the full loop: the
    first (i,) where (counit (x) id) Delta(e_i) or (id (x) counit) Delta(e_i)
    differs from e_i as a dense vector, else None."""
    dom, n = h.domain, h.dim
    delta = _dense_comult(h)
    for i in range(n):
        left = [_sum(dom, (dom.mul(h.counit[j], delta[i][j][k]) for j in range(n)))
                for k in range(n)]
        right = [_sum(dom, (dom.mul(delta[i][j][k], h.counit[k]) for k in range(n)))
                 for j in range(n)]
        e_i = list(unit_vec(dom, n, i))
        if left != e_i or right != e_i:
            return (i,)
    return None


def word_span_dim(alg, generators):
    """Dimension of the span of the unit, the e_s for s in generators and
    their left-bracketed products, by dense products and dense echelon
    bases."""
    dom, n = alg.domain, alg.dim
    grid = dense_tensor_from_triples(
        dom, (n, n, n), [(i, j, k, c) for i in range(n) for j in range(n)
                         for k, c in alg.mult[i][j]])
    gens = [list(unit_vec(dom, n, s)) for s in generators]
    words = [list(alg.unit)] + gens
    span = dense_echelon_basis(dom, words)
    for word in words:
        for g in gens:
            new = _dense_mul(dom, grid, word, g)
            grown = dense_echelon_basis(dom, list(span) + [new])
            if len(grown) > len(span):
                span = grown
                words.append(new)
    return len(span)


def dense_generating_set(alg):
    """The greedy generating set of `hopf.generating_set`, from its
    definition: index c joins S when e_c lies outside the smallest
    subspace that holds the unit and the e_s of S so far and is closed
    under right multiplication by them; None when |S| + 1 reaches the
    dimension.  Spans are dense echelon bases, products dense."""
    dom, n = alg.domain, alg.dim
    grid = dense_tensor_from_triples(
        dom, (n, n, n), [(i, j, k, c) for i in range(n) for j in range(n)
                         for k, c in alg.mult[i][j]])
    gens, span = [], dense_echelon_basis(dom, [alg.unit])
    for c in range(n):
        grown = dense_echelon_basis(dom, list(span) + [unit_vec(dom, n, c)])
        if len(grown) == len(span):
            continue
        gens.append(c)
        if len(gens) + 1 >= n:
            return None
        while len(grown) > len(span):
            span = grown
            grown = dense_echelon_basis(dom, list(span) + [
                _dense_mul(dom, grid, w, unit_vec(dom, n, g)) for w in span for g in gens])
    return tuple(gens) if len(gens) + 1 < n else None


# dense actions ------------------------------------------------------------------
#
# The references for the ColumnMap actions of `hopf` and `actions`: every
# action is a dense Matrix, combined, composed and applied entry by entry.


def dense_apply(m, vec):
    """The image of vec under a dense Matrix, row by row."""
    if len(vec) != m.ncols:
        raise ShapeError("vector length mismatch")
    dom = m.domain
    vec = [dom.normalize(b) for b in vec]
    out = []
    for row in m.rows:
        acc = dom.zero
        for a, b in zip(row, vec):
            acc = dom.add(acc, dom.mul(a, b))
        out.append(acc)
    return tuple(out)


def dense_antipode_witness(h):
    """The antipode witness of `hopf.verify_hopf`, from the dense columns of
    the antipode: the first i where mu (alpha (x) id) Delta(e_i) or
    mu (id (x) alpha) Delta(e_i) differs from counit(e_i) 1, else None."""
    alg, dom, n = h.algebra, h.domain, h.dim
    alpha = h.antipode.to_dense()
    for i in range(n):
        left = [dom.zero] * n
        right = [dom.zero] * n
        for j, k, c in h.comult[i]:
            lterm = dense_product(alg, alpha.col(j), unit_vec(dom, n, k))
            rterm = dense_product(alg, unit_vec(dom, n, j), alpha.col(k))
            for t in range(n):
                left[t] = dom.add(left[t], dom.mul(c, lterm[t]))
                right[t] = dom.add(right[t], dom.mul(c, rterm[t]))
        target = [dom.mul(h.counit[i], u) for u in alg.unit]
        if left != target or right != target:
            return (i,)
    return None


def combination(domain, coeffs, mats, nrows, ncols):
    """Sum of c_k * mats[k] over the nonzero c_k; the zero matrix when none."""
    add, mul = domain.add, domain.mul
    rows = [[domain.zero] * ncols for _ in range(nrows)]
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for out, mrow in zip(rows, m.rows):
            for j, v in enumerate(mrow):
                if v:
                    out[j] = add(out[j], mul(c, v))
    return Matrix._make(domain, rows, ncols)


def left_mult_matrix(alg, vec):
    """Matrix of x -> vec * x (columns are images of basis vectors)."""
    mul, zero, mult = alg.domain.mul, alg.domain.zero, alg.mult
    terms = (
        ((k, j), mul(a, w))
        for i, a in enumerate(vec) if a != zero
        for j in range(alg.dim)
        for k, w in mult[i][j]
    )
    return Matrix.from_entries(alg.domain, alg.dim, alg.dim, terms)


def right_mult_matrix(alg, vec):
    """Matrix of x -> x * vec."""
    mul, zero, mult = alg.domain.mul, alg.domain.zero, alg.mult
    terms = (
        ((k, i), mul(a, w))
        for j, a in enumerate(vec) if a != zero
        for i in range(alg.dim)
        for k, w in mult[i][j]
    )
    return Matrix.from_entries(alg.domain, alg.dim, alg.dim, terms)


def dense_action_matrices(domain, action, dim):
    """One dense matrix per block of an action tensor: column m of block a
    holds the (t, c) pairs of e_a . e_m."""
    return [
        Matrix.from_entries(domain, dim, dim, (((t, m), c) for m, col in enumerate(block) for t, c in col))
        for block in action
    ]


def dense_galois_j(d):
    """j : S#H -> End(S), j(s (x) h)(t) = s (h . t), of a module algebra as
    a dense Matrix: column s*dim(H)+h holds at row u*dim(S)+t the
    coefficient of e_u in e_s (e_h . e_t), by dense products."""
    dom, alg = d.domain, d.algebra
    ds, dh = alg.dim, d.hopf.dim
    mats = dense_action_matrices(dom, d.action, ds)
    rows = [[dom.zero] * (ds * dh) for _ in range(ds * ds)]
    for s, h, t in product(range(ds), range(dh), range(ds)):
        image = dense_product(alg, unit_vec(dom, ds, s), mats[h].col(t))
        for u, c in enumerate(image):
            rows[u * ds + t][s * dh + h] = c
    return Matrix(dom, rows)


def dense_gamma(x):
    """gamma : S (x) S -> S (x) K, s (x) t -> s t_(0) (x) t_(1), as a dense
    Matrix with rows u*dim(K)+k and columns s*dim(S)+t, by dense products.

    For a comodule algebra, K = H and t_(0) (x) t_(1) is rho(e_t); for a
    module algebra, K = H* and it is sum_a (e_a . e_t) (x) e_a*, read off
    the dense action matrices."""
    dom, alg = x.domain, x.algebra
    ds, dk = alg.dim, x.hopf.dim
    if hasattr(x, "action"):
        mats = dense_action_matrices(dom, x.action, ds)
        legs = [[mats[k].col(t) for k in range(dk)] for t in range(ds)]
    else:
        grid = dense_tensor_from_triples(dom, (ds, ds, dk), [
            (t, t0, k, c) for t in range(ds) for t0, k, c in x.comodule.coaction[t]])
        legs = [[tuple(grid[t][t0][k] for t0 in range(ds)) for k in range(dk)]
                for t in range(ds)]
    rows = [[dom.zero] * (ds * ds) for _ in range(ds * dk)]
    for s, t, k in product(range(ds), range(ds), range(dk)):
        image = dense_product(alg, unit_vec(dom, ds, s), legs[t][k])
        for u, c in enumerate(image):
            rows[u * dk + k][s * ds + t] = c
    return Matrix(dom, rows)


def dense_faithful(d):
    """Whether H -> End(S) is injective: whether the dense action matrices,
    read as vectors, have the rank dim(H) in their dense RREF."""
    mats = dense_action_matrices(d.domain, d.action, d.algebra.dim)
    flat = Matrix.from_cols(d.domain, [[v for row in m.rows for v in row] for m in mats])
    return len(dense_rref(flat)[1]) == len(mats)


def dense_coinvariants(c):
    """Canonical echelon basis of {m : rho(m) = m (x) 1}: the dense kernel
    of the map e_m -> rho(e_m) - e_m (x) 1, rows m'*dim(H)+h."""
    dom, dh = c.domain, c.hopf.dim
    terms = [((m2 * dh + h, m), w) for m in range(c.dim) for m2, h, w in c.coaction[m]]
    terms += [((m * dh + h, m), dom.neg(u)) for m in range(c.dim)
              for h, u in enumerate(c.hopf.algebra.unit)]
    return dense_kernel_basis(Matrix.from_entries(dom, c.dim * dh, c.dim, terms))


def dense_rref(m):
    """Reduced row echelon form of a field Matrix by dense Gauss-Jordan
    elimination (first nonzero column, topmost row, pivot scaled to 1).

    Returns (echelon Matrix, tuple of pivot columns).
    """
    dom = m.domain
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        sel = next((r for r in range(pr, m.nrows) if rows[r][pc] != dom.zero), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv_p = dom.inv(rows[pr][pc])
        rows[pr] = [dom.mul(inv_p, v) for v in rows[pr]]
        for r in range(m.nrows):
            if r != pr and rows[r][pc] != dom.zero:
                f = rows[r][pc]
                rows[r] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Matrix(dom, rows) if rows else Matrix.zeros(dom, 0, m.ncols), tuple(pivots)


def general_rref(m):
    """The package's sparse elimination with every row taking the general
    path: each row, empty or not, is reduced by the pivots it meets and
    scaled to 1 at its lowest column, and the back-substitution visits
    every stored row.  The reference for `linalg.rref`, whose shortcuts
    skip the rows that are already reduced.  Returns {pivot: {col: coeff}}."""
    dom = m.domain
    rows = m.transpose().cols if isinstance(m, ColumnMap) else (enumerate(r) for r in m.rows)
    pivots = {}
    for terms in rows:
        general_echelon_insert(dom, pivots, terms)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in [c for c in row if c in pivots and c != p]:
            f = row[q]
            for c, v in pivots[q].items():
                x = dom.sub(row.get(c, dom.zero), dom.mul(f, v))
                if x:
                    row[c] = x
                else:
                    del row[c]
    return pivots


def general_echelon_insert(domain, pivots, terms):
    """`linalg.echelon_insert` without its unit-row shortcut: the row is
    reduced by the stored pivots it meets in increasing column order,
    then scaled to 1 at its lowest column and stored; its pivot, or None."""
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
    inv = domain.inv(r[p])
    pivots[p] = {c: domain.mul(inv, v) for c, v in r.items()}
    return p


def general_kernel_map(m):
    """The canonical kernel basis as `linalg.kernel_map` reads it off the
    RREF of the reversed columns, from `general_rref`, every vector sorted."""
    dom = m.domain
    if isinstance(m, Matrix):
        m = ColumnMap.from_dense(m)
    last = m.ncols - 1
    pivots = general_rref(ColumnMap(dom, m.nrows, m.cols[::-1]))
    free = {f: [(f, dom.one)] for f in range(m.ncols) if last - f not in pivots}
    for q, row in pivots.items():
        for c, v in row.items():
            if c != q:
                free[last - c].append((last - q, dom.neg(v)))
    return ColumnMap(dom, m.ncols, [tuple(sorted(vec)) for vec in free.values()])


def dense_echelon_basis(domain, vectors):
    """The nonzero rows of the dense RREF of the given vectors."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return ()
    R, pivots = dense_rref(Matrix(domain, vectors))
    return tuple(R.rows[: len(pivots)])


def _augment(m, cols):
    """The dense Matrix [m | cols] of a Matrix m and extra columns."""
    return Matrix(m.domain, [row + tuple(c[i] for c in cols) for i, row in enumerate(m.rows)])


def dense_solve(m, b):
    """m x = b from the dense RREF of [m | b], free variables 0; None when
    the last column is a pivot."""
    R, pivots = dense_rref(_augment(m, [tuple(b)]))
    if m.ncols in pivots:
        return None
    x = [m.domain.zero] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = R.rows[i][m.ncols]
    return tuple(x)


def dense_inverse(m):
    """(inverse, rank) from the dense RREF of [m | I]; the inverse is None
    when m is singular."""
    n = m.nrows
    R, pivots = dense_rref(_augment(m, Matrix.identity(m.domain, n).cols()))
    r = sum(1 for p in pivots if p < n)
    if r < n:
        return None, r
    return Matrix(m.domain, [row[n:] for row in R.rows]), r


def dense_kernel_basis(m):
    """Canonical echelon basis of the kernel of a dense field Matrix: the
    free-column vectors of its dense RREF, brought to echelon form."""
    dom = m.domain
    R, pivots = dense_rref(m)
    vecs = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        v = [dom.zero] * m.ncols
        v[f] = dom.one
        for i, p in enumerate(pivots):
            v[p] = dom.neg(R.rows[i][f])
        vecs.append(v)
    return dense_echelon_basis(dom, vecs)


def dense_fixed_points(h, mats):
    """Kernel of the stacked e_a - counit(e_a) I, block by block."""
    dom = h.domain
    n = mats[0].nrows
    ident = Matrix.identity(dom, n)
    return dense_kernel_basis(stack([m - ident.scale(e) for m, e in zip(mats, h.counit)]))


def dense_integrals(h, side):
    """Integral basis from the stacked left (or right) multiplications."""
    mult = left_mult_matrix if side == "left" else right_mult_matrix
    return dense_fixed_points(h, [mult(h.algebra, unit_vec(h.domain, h.dim, a)) for a in range(h.dim)])


def powered_is_local(h):
    """Whether the counit kernel J of h is nilpotent, by powering it for
    every h: J^(k+1) = J^k J as dense echelon bases, until a power is 0 or
    equals the one before.  The reference for `hopf.is_local`, which
    answers a semisimple h by theorem instead."""
    dom = h.domain
    radical = current = dense_kernel_basis(Matrix(dom, [tuple(h.counit)]))
    for _ in range(h.dim + 1):
        if not current:
            return True
        nxt = dense_echelon_basis(dom, [dense_product(h.algebra, u, v)
                                        for u in current for v in radical])
        if nxt == current:
            return False
        current = nxt
    return not current


def dense_representation_witness(alg, mats):
    """The witness of `AlgebraData.representation_witness` on dense matrices."""
    dom = alg.domain
    n = mats[0].nrows
    if combination(dom, alg.unit, mats, n, n) != Matrix.identity(dom, n):
        return ("unit",)
    for a in range(alg.dim):
        for b in range(alg.dim):
            cell = alg.mult[a][b]
            coeffs, terms = [c for _, c in cell], [mats[k] for k, _ in cell]
            if combination(dom, coeffs, terms, n, n) != mats[a] @ mats[b]:
                return (a, b)
    return None


# comodule, relative-module and associated-order laws ----------------------------
#
# The full loops of the laws that the package decides only where data enters.
# Derived comodules, comodule algebras, relative Hopf modules and associated
# orders satisfy them by a theorem and are built without a check; these are
# the references the derived structures are tested against.


def _collect(domain, terms):
    """Nonzero totals of (key, coeff) terms, as a dict."""
    out = {}
    for key, c in terms:
        out[key] = domain.add(out.get(key, domain.zero), c)
    return {k: v for k, v in out.items() if v != domain.zero}


def comodule_law_witness(c):
    """("comodule-counit", (m,)) at the first m with (id (x) counit) rho(e_m)
    != e_m, else ("comodule-coassociativity", (m,)) at the first m with
    (rho (x) id) rho(e_m) != (id (x) Delta) rho(e_m), else None."""
    dom, h = c.domain, c.hopf
    mul = dom.mul
    for m in range(c.dim):
        out = _collect(dom, ((m2, mul(w, h.counit[a])) for m2, a, w in c.coaction[m]))
        if out != {m: dom.one}:
            return ("comodule-counit", (m,))
    for m in range(c.dim):
        rho = c.coaction[m]
        left = _collect(dom, (
            ((m3, a2, a), mul(w, w2)) for m2, a, w in rho for m3, a2, w2 in c.coaction[m2]
        ))
        right = _collect(dom, (
            ((m2, j, k), mul(w, w2)) for m2, a, w in rho for j, k, w2 in h.comult[a]
        ))
        if left != right:
            return ("comodule-coassociativity", (m,))
    return None


def comodule_algebra_witness(S):
    """("comodule-algebra-unit", ()) when rho(1) != 1 (x) 1, else
    ("comodule-algebra-mult", (s, t)) at the first pair with
    rho(e_s e_t) != rho(e_s) rho(e_t), else None.

    rho is read as a dense dim(S) x dim(H) grid per basis vector, and
    products are taken cell by cell in S (x) H."""
    dom, h, c = S.domain, S.hopf, S.comodule
    n, dh = S.dim, h.dim
    s_grid = dense_tensor_from_triples(dom, (n, n, n), mult_triples(S.algebra))
    h_grid = dense_tensor_from_triples(dom, (dh, dh, dh), mult_triples(h.algebra))

    def rho(vec):
        out = [[dom.zero] * dh for _ in range(n)]
        for m, a in enumerate(vec):
            for m2, b, w in c.coaction[m]:
                out[m2][b] = dom.add(out[m2][b], dom.mul(a, w))
        return out

    def square_mul(x, y):
        out = [[dom.zero] * dh for _ in range(n)]
        for s0, t0, a1, a2 in product(range(n), range(n), range(dh), range(dh)):
            coeff = dom.mul(x[s0][a1], y[t0][a2])
            if coeff:
                for u, b in product(range(n), range(dh)):
                    w = dom.mul(s_grid[s0][t0][u], h_grid[a1][a2][b])
                    out[u][b] = dom.add(out[u][b], dom.mul(coeff, w))
        return out

    one = [[dom.mul(a, b) for b in h.algebra.unit] for a in S.algebra.unit]
    if rho(S.algebra.unit) != one:
        return ("comodule-algebra-unit", ())
    basis = [unit_vec(dom, n, s) for s in range(n)]
    for s, t in product(range(n), repeat=2):
        if rho(s_grid[s][t]) != square_mul(rho(basis[s]), rho(basis[t])):
            return ("comodule-algebra-mult", (s, t))
    return None


def module_algebra_failures(d):
    """Every failure of the module-algebra law of an action, in the order
    of the full loop over dim H (dim S)^2 cases: for each a, (a, "unit")
    when e_a . 1 != counit(e_a) 1, then each (a, s, t) with
    e_a . (e_s e_t) != (e_a1 . e_s)(e_a2 . e_t), s before t.  Read off
    dense action matrices and dense products."""
    dom, h, alg = d.domain, d.hopf, d.algebra
    n = alg.dim
    mats = dense_action_matrices(dom, d.action, n)
    basis = [unit_vec(dom, n, s) for s in range(n)]
    for a in range(h.dim):
        if dense_apply(mats[a], alg.unit) != tuple(dom.mul(h.counit[a], x) for x in alg.unit):
            yield (a, "unit")
        for s, t in product(range(n), repeat=2):
            rhs = [dom.zero] * n
            for j, k, c in h.comult[a]:
                term = dense_product(alg, mats[j].col(s), mats[k].col(t))
                rhs = [dom.add(x, dom.mul(c, y)) for x, y in zip(rhs, term)]
            if dense_apply(mats[a], dense_product(alg, basis[s], basis[t])) != tuple(rhs):
                yield (a, s, t)


def module_algebra_witness(d):
    """The first of `module_algebra_failures`, or None: (a, "unit") or
    (a, s, t), the witness of the full loop."""
    return next(module_algebra_failures(d), None)


def relative_module_witness(m):
    """("S-module", w) when the S-action of a relative Hopf module fails the
    module law at w, else ("relative-hopf-module", (s, v)) at the first pair
    with rho(e_s . e_v) != rho(e_s) rho(e_v), else None."""
    S, comod = m.comod_algebra, m.comodule
    dom = S.domain
    mul = dom.mul
    witness = dense_representation_witness(
        S.algebra, dense_action_matrices(dom, m.s_action, m.dim))
    if witness is not None:
        return ("S-module", witness)
    h_mult = S.hopf.algebra.mult
    for s in range(S.dim):
        for v in range(m.dim):
            lhs = _collect(dom, (
                ((v3, a), mul(c, w)) for v2, c in m.s_action[s][v] for v3, a, w in comod.coaction[v2]
            ))
            rhs = _collect(dom, (
                ((vi, a), mul(mul(c1, c2), mul(w1, w2)))
                for s0, a1, c1 in S.comodule.coaction[s]
                for v0, a2, c2 in comod.coaction[v]
                for a, w2 in h_mult[a1][a2]
                for vi, w1 in m.s_action[s0][v0]
            ))
            if lhs != rhs:
                return ("relative-hopf-module", (s, v))
    return None


def order_closure_witness(order):
    """("unit",) when 1 lies outside the order, else the first (i, j) whose
    product of canonical generators leaves it, else None; membership and
    products through `ReferenceLattice` and `dense_product`."""
    ref = ReferenceLattice.from_generators(order.lattice.ambient_dim, order.lattice.generators())
    alg = order.hopf.algebra
    if not ref.contains(alg.unit):
        return ("unit",)
    gens = ref.generators()
    for i, u in enumerate(gens):
        for j, v in enumerate(gens):
            if not ref.contains(dense_product(alg, u, v)):
                return (i, j)
    return None


def comult_stability_witness(order):
    """The first i whose canonical generator g_i has Delta(g_i) outside
    L (x) L, else None: L (x) L is the `ReferenceLattice` of the n^2
    products g_a (x) g_b, flattened with the left factor slowest, and
    Delta(g_i) is summed from the dense comultiplication grid."""
    h = order.hopf
    n = h.dim
    gens = ReferenceLattice.from_generators(n, order.lattice.generators()).generators()
    square = ReferenceLattice.from_generators(
        n * n, [tuple(QQ.mul(a, b) for a in u for b in v) for u in gens for v in gens])
    delta = _dense_comult(h)
    for i, u in enumerate(gens):
        image = tuple(
            _sum(QQ, (QQ.mul(c, delta[m][j][k]) for m, c in enumerate(u)))
            for j in range(n) for k in range(n))
        if not square.contains(image):
            return i
    return None


def hopf_order_flags(order):
    """The five closure flags of `lattices.HopfOrderReport` and its witness,
    the first failure among mult, comult, counit and antipode in that order:
    membership through `ReferenceLattice`, products by `dense_product`, the
    antipode by `dense_apply`."""
    h = order.hopf
    ref = ReferenceLattice.from_generators(order.lattice.ambient_dim, order.lattice.generators())
    gens = ref.generators()
    mult = next(((i, j) for i, u in enumerate(gens) for j, v in enumerate(gens)
                 if not ref.contains(dense_product(h.algebra, u, v))), None)
    comult = comult_stability_witness(order)
    counit = next((i for i, u in enumerate(gens)
                   if _sum(QQ, (QQ.mul(a, e) for a, e in zip(u, h.counit))).denominator != 1),
                  None)
    alpha = h.antipode.to_dense()
    antipode = next((i for i, u in enumerate(gens) if not ref.contains(dense_apply(alpha, u))),
                    None)
    failures = [("mult",) + mult if mult else None,
                None if comult is None else ("comult", comult),
                None if counit is None else ("counit", counit),
                None if antipode is None else ("antipode", antipode)]
    return (ref.contains(h.algebra.unit), mult is None, comult is None, counit is None,
            antipode is None, next((f for f in failures if f), None))


def integral_image_in_fixed_lattice(module, generator):
    """Whether J.S lies in S^A, J the integral line of an order A through
    `generator`: each image of a canonical generator of the lattice lies
    in the lattice (`ReferenceLattice`) and is fixed by H, e_a . v =
    counit(e_a) v, by dense actions.  S^A is the lattice met with the
    fixed space of H, which A spans."""
    lat = module.lattice
    n = lat.ambient_dim
    ref = ReferenceLattice.from_generators(n, lat.generators())
    mats = [m.to_dense() for m in module.action]
    integral = combination(QQ, generator, mats, n, n)
    for g in ref.generators():
        v = dense_apply(integral, g)
        if not ref.contains(v):
            return False
        if any(dense_apply(m, v) != tuple(QQ.mul(e, x) for x in v)
               for m, e in zip(mats, module.hopf.counit)):
            return False
    return True


# dense cyclic-family and bar operators -----------------------------------------
#
# The faces, degeneracies and differentials that the package decides by
# lemmas and never builds, and the reference for its one built operator,
# `cocyclic.cyclic_matrix`: every operator is a dense Matrix, slots are
# placed row by row, and the identity checks compose, compare and apply
# dense matrices.


def dense_on_slot(domain, left, a, right):
    """I_left (x) a (x) I_right as a dense Matrix, row by row."""
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


def _dense_mult_matrix(alg):
    return ColumnMap(alg.domain, alg.dim, [cell for row in alg.mult for cell in row]).to_dense()


def dense_cyclic_matrix(S, M, n):
    """t_n from the slot tuple of each basis vector of level n."""
    dom = S.domain
    dims = [S.dim] * (n + 1) + [M.dim]
    total = S.dim ** (n + 1) * M.dim

    def flat(idx):
        out = 0
        for i, d in zip(idx, dims):
            out = out * d + i
        return out

    terms = []
    for col in range(total):
        idx, rest = [], col
        for d in reversed(dims):
            rest, r = divmod(rest, d)
            idx.append(r)
        idx.reverse()
        slots, mi = idx[:-1], idx[-1]
        for s0, h, c in S.comodule.coaction[slots[-1]]:
            for m2, w in M.action[h][mi]:
                terms.append(((flat([s0] + slots[:-1] + [m2]), col), dom.mul(c, w)))
    return Matrix.from_entries(dom, total, total, terms)


def dense_face_matrix(S, M, n, i):
    if i == n:
        return dense_face_matrix(S, M, n, 0) @ dense_cyclic_matrix(S, M, n)
    ds = S.dim
    return dense_on_slot(S.domain, ds ** i, _dense_mult_matrix(S.algebra), ds ** (n - 1 - i) * M.dim)


def dense_degeneracy_matrix(S, M, n, i):
    ds = S.dim
    unit_col = Matrix.from_cols(S.domain, [S.algebra.unit], ds)
    return dense_on_slot(S.domain, ds ** (i + 1), unit_col, ds ** (n - i) * M.dim)


def alternating_sum(domain, mats, first):
    """The sum of (-1)^i mats[i - first] over i from first: a face differential."""
    signs = [domain.one if i % 2 == 0 else domain.neg(domain.one)
             for i in range(first, first + len(mats))]
    return combination(domain, signs, mats, mats[0].nrows, mats[0].ncols)


def dense_face_differential(S, M, n):
    """b_n = sum of (-1)^i d_i over the faces of level n, n >= 1."""
    return alternating_sum(S.domain, [dense_face_matrix(S, M, n, i) for i in range(n + 1)], 0)


def dense_bar_differential(alg, n, dm, s_action=None):
    """b_n, n >= 1, of the one-sided bar complex on S^(x)n (x) M, dim M = dm:
    the sum of (-1)^i d_i from i = 1, where d_i multiplies slots i, i + 1
    for i < n and d_n is the action s_action[s][m] = s . m on the
    coefficients.  With no s_action, d_n is left out, as for coefficients
    that carry no S-action."""
    dom, ds = alg.domain, alg.dim
    mult = _dense_mult_matrix(alg)
    faces = [dense_on_slot(dom, ds ** (i - 1), mult, ds ** (n - 1 - i) * dm) for i in range(1, n)]
    if s_action is not None:
        act = ColumnMap(dom, dm, [cell for block in s_action for cell in block]).to_dense()
        faces.append(dense_on_slot(dom, ds ** (n - 1), act, 1))
    return alternating_sum(dom, faces, 1)


def trivial_comodule(hopf, dim):
    """V with the trivial coaction v -> v (x) 1."""
    unit = hopf.algebra.unit
    return cocyclic._comodule(
        hopf, dim, [(m, m, h, u) for m in range(dim) for h, u in enumerate(unit)])


def tensor_comodule(x, c):
    """X (x) C as a validated right comodule from its coaction entries, which
    `hopf.sparse_tensor` sums and sorts: legs multiply in H."""
    mul = c.domain.mul
    triples = [
        (xi * c.dim + s, x0 * c.dim + s0, hh, mul(mul(c1, c2), w))
        for xi in range(x.dim)
        for x0, h1, c1 in x.coaction[xi]
        for s in range(c.dim)
        for s0, h2, c2 in c.coaction[s]
        for hh, w in c.hopf.algebra.mult[h1][h2]
    ]
    return cocyclic.comodule_from_triples(c.hopf, x.dim * c.dim, triples)


def tensor_power_comodule(c, k):
    """C^(x)k as a right comodule, rebuilt from C."""
    current = c
    for _ in range(k - 1):
        current = tensor_comodule(current, c)
    return current


# The generator forms of the package's hot sparse contractions, as they were
# before each became one dict loop: every term goes through `_collect`, the
# old `linalg.sparse_sum`, and the totals are sorted where the package sorts.


def collected_tensor_coaction(x, c):
    """The coaction of X (x) C: the legs of x_i (x) c_s summed by (m', h)."""
    dom, dc, h_mult = x.domain, c.dim, x.hopf.algebra.mult
    mul = dom.mul
    return tuple(
        tuple((m2, hh, w) for (m2, hh), w in sorted(_collect(dom, (
            ((x0 * dc + s0, hh), mul(mul(c1, c2), w))
            for x0, h1, c1 in legs for s0, h2, c2 in c.coaction[s] for hh, w in h_mult[h1][h2]
        )).items()))
        for legs in x.coaction for s in range(dc))


def collected_cyclic_power(X, M, col):
    """t_n^(n+1) of a column by its closed form (id (x) act)(rho_X (x) id)."""
    dom, dm = X.domain, M.dim
    mul = dom.mul
    return tuple(sorted(_collect(dom, (
        (x0 * dm + m2, mul(mul(c, w), v))
        for i, c in col for x0, h, w in X.coaction[i // dm] for m2, v in M.action[h][i % dm]
    )).items()))


def collected_cyclic_matrix(S, M, n):
    """t_n from the images of (s, m) with no slots before them, placed by
    (s0, m2) and shifted by each value of the other slots."""
    dom, ds, dm = S.domain, S.dim, M.dim
    step = ds ** n * dm
    placed = [
        [(s0 * step + m2, c) for (s0, m2), c in sorted(_collect(dom, (
            ((s0, m2), dom.mul(c, w))
            for s0, h, c in S.comodule.coaction[s] for m2, w in M.action[h][m]
        )).items())]
        for s in range(ds) for m in range(dm)
    ]
    return ColumnMap(dom, ds * step, [
        tuple((i + shift, c) for i, c in spread)
        for shift in range(0, step, dm) for spread in placed
    ])


def collected_square_sum(dom, mult, h_mult, u, v):
    """The product in A (x) H of two lists of (a, b, c) triples, as a dict."""
    mul = dom.mul
    return _collect(dom, (
        ((s, t), mul(mul(c1, c2), mul(w1, w2)))
        for a, b, c1 in u for c, d, c2 in v for s, w1 in mult[a][c] for t, w2 in h_mult[b][d]
    ))


def collected_coaction_multiplicative(dom, mult, coaction, h_mult, i, j):
    """Whether rho(e_i e_j) = rho(e_i) rho(e_j) in A (x) H."""
    lhs = _collect(dom, (
        ((u, v), dom.mul(a, c)) for k, a in mult[i][j] for u, v, c in coaction[k]
    ))
    return lhs == collected_square_sum(dom, mult, h_mult, coaction[i], coaction[j])


def collected_product(domain, mult, u, v):
    """The product of two sparse vectors of (index, coeff) pairs, as a dict."""
    mul = domain.mul
    return _collect(domain, (
        (k, mul(mul(a, b), w)) for i, a in u for j, b in v for k, w in mult[i][j]
    ))


def dense_cotensor(x, m):
    """Kernel of (rho_X (x) id_M) - (id_X (x) rho_M) by dense elimination."""
    dom = x.domain
    dh = x.hopf.dim
    dm = m.dim
    terms = [
        (((x0 * dm + mi) * dh + h, xi * dm + mi), c)
        for xi in range(x.dim) for mi in range(dm) for x0, h, c in x.coaction[xi]
    ] + [
        (((xi * dm + m0) * dh + h, xi * dm + mi), dom.neg(c))
        for xi in range(x.dim) for mi in range(dm) for m0, h, c in m.coaction[mi]
    ]
    return dense_kernel_basis(Matrix.from_entries(dom, x.dim * dm * dh, x.dim * dm, terms))


def echelon_in_span(domain, basis, vec):
    """Membership in the span of an echelon basis by elimination."""
    vec = list(vec)
    for b in basis:
        lead = next((j for j, x in enumerate(b) if x != domain.zero), None)
        if lead is None:
            continue
        if vec[lead] != domain.zero:
            f = domain.div(vec[lead], b[lead])
            vec = [domain.sub(a, domain.mul(f, c)) for a, c in zip(vec, b)]
    return all(v == domain.zero for v in vec)


def dense_cyclic_identities(S, M, n):
    """The CyclicIdentityReport of `cocyclic.check_cyclic_identities`, from
    dense operators, with the same order of checks and so the same witnesses."""
    if S.hopf != M.hopf:
        raise ShapeError("S and M must live over one Hopf algebra")
    dom = S.domain
    dim = S.dim ** (n + 1) * M.dim
    faces = [dense_face_matrix(S, M, n, i) for i in range(n + 1)] if n >= 1 else []
    degens = [dense_degeneracy_matrix(S, M, n, i) for i in range(n + 1)]
    witness = None
    if n >= 2:
        below = [dense_face_matrix(S, M, n - 1, i) for i in range(n)]
        pairs = [(i, j) for j in range(1, n + 1) for i in range(j)]
        witness = next((("d.d", i, j) for i, j in pairs
                        if below[i] @ faces[j] != below[j - 1] @ faces[i]), None)
    if witness is None:
        above = [dense_face_matrix(S, M, n + 1, i) for i in range(n + 2)]
        degens_below = [dense_degeneracy_matrix(S, M, n - 1, k) for k in range(n)]
        ident = Matrix.identity(dom, dim)

        def holds(i, j):
            lhs = above[i] @ degens[j]
            if i == j or i == j + 1:
                return lhs == ident
            if i < j:
                return lhs == degens_below[j - 1] @ faces[i]
            return lhs == degens_below[j] @ faces[i - 1]

        pairs = [(i, j) for j in range(n + 1) for i in range(n + 2)]
        witness = next((("d.s", i, j) for i, j in pairs if not holds(i, j)), None)
    if witness is None:
        pairs = [(i, j) for j in range(n + 1) for i in range(j + 1)]
        witness = next((
            ("s.s", i, j) for i, j in pairs
            if dense_degeneracy_matrix(S, M, n + 1, i) @ degens[j]
            != dense_degeneracy_matrix(S, M, n + 1, j + 1) @ degens[i]
        ), None)
    rotation_ok = n == 0 or (
        faces[n] @ dense_cyclic_matrix(S, M, n) == dense_cyclic_matrix(S, M, n - 1) @ faces[n - 1]
    )
    basis = dense_cotensor(tensor_power_comodule(S.comodule, n + 1), M.comodule)
    t = dense_cyclic_matrix(S, M, n)
    tpow = Matrix.identity(dom, dim)
    for _ in range(n + 1):
        tpow = t @ tpow
    cyc_witness = next(((k,) for k, vec in enumerate(basis) if dense_apply(tpow, vec) != vec), None)
    return cocyclic.CyclicIdentityReport(
        level=n,
        dim=dim,
        cotensor_dim=len(basis),
        simplicial_ok=witness is None,
        simplicial_witness=witness,
        rotation_ok=rotation_ok,
        cyclicity_ok=cyc_witness is None,
        cyclicity_witness=cyc_witness,
        t_preserves_cotensor=all(echelon_in_span(dom, basis, dense_apply(t, vec)) for vec in basis),
    )


def bar_shift_compat(d, module, top):
    """Degreewise differential compatibility of the bar shift, built out:
    for n = 1..top, whether I (x) phi, phi the inverse of the Morita map
    S (x) M^H -> M, intertwines the bar differential of B(S, M) in
    degree n with faces 1..n of B(S, M^H) in degree n + 1.  [False] * top
    when the Morita map is not bijective.  phi comes from the dense
    `dense_inverse`, the differentials from `dense_bar_differential`.
    The reference for `cocyclic.bar_shift_check`, which takes the verdict
    from the Morita lemma instead."""
    from hopfgal import actions

    morita = actions.morita_decomposition(module)
    if not morita.bijective:
        return [False] * top
    dom, alg = d.domain, d.algebra
    ds, dm, k = alg.dim, morita.dim_module, morita.dim_fixed
    phi = dense_inverse(morita.matrix.to_dense())[0]  # M -> S (x) M^H
    s_action = module.s_action()
    compat = []
    for n in range(1, top + 1):
        iso_lo = dense_on_slot(dom, ds ** (n - 1), phi, 1)
        iso_hi = dense_on_slot(dom, ds ** n, phi, 1)
        # M^H carries no S-action, so its top face is left out
        partial = dense_bar_differential(alg, n + 1, k)
        compat.append(partial @ iso_hi == iso_lo @ dense_bar_differential(alg, n, dm, s_action))
    return compat


@dataclass(frozen=True)
class ReferenceLattice:
    """A lattice in Q^n held as a dense Q-Matrix whose columns are its
    canonical generators: the Hermite form of the generator rows scaled
    to integers, divided by the scale again.  Coordinates come from the
    dense `dense_solve`."""

    ambient_dim: int
    basis: Matrix

    @classmethod
    def from_generators(cls, ambient_dim, vectors):
        vectors = [tuple(QQ.normalize(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError("generator length mismatch")
        vectors = [v for v in vectors if any(x != 0 for x in v)]
        if not vectors:
            return cls(ambient_dim, Matrix.zeros(QQ, ambient_dim, 0))
        scale = 1
        for v in vectors:
            for x in v:
                scale = scale * x.denominator // gcd(scale, x.denominator)
        integer_rows = [[int(x * scale) for x in v] for v in vectors]
        h, _ = hermite_normal_form(Matrix(ZZ, integer_rows))
        rows = [r for r in h.rows if any(v != 0 for v in r)]
        cols = [tuple(Fraction(x, scale) for x in r) for r in rows]
        return cls(ambient_dim, Matrix.from_cols(QQ, cols, ambient_dim))

    @property
    def rank(self):
        return self.basis.ncols

    def generators(self):
        return [self.basis.col(j) for j in range(self.rank)]

    def coords(self, vec):
        return dense_solve(self.basis, [QQ.normalize(x) for x in vec])

    def contains(self, vec):
        x = self.coords(vec)
        return x is not None and all(Fraction(v).denominator == 1 for v in x)
