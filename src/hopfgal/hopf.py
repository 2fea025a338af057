"""Finite-dimensional algebras and Hopf algebras by structure constants.

An algebra is a multiplication tensor plus a unit vector on a labelled
basis; a Hopf algebra adds a comultiplication tensor, a counit vector
and an explicit antipode, a `linalg.ColumnMap`.

Each law is decided once, where its data enters.  `AlgebraData` is a
record; :func:`algebra_from_triples`, which the file loader, the
builtins and `zoo` use, decides associativity and the unit axiom, and a
group algebra takes both from its table (:func:`check_group_table`).
:func:`verify_hopf` checks the other Hopf axioms, and
:func:`build_hopf` runs it once, refuses failing data and keeps the
report for the caller.  A group algebra is a Hopf algebra by a theorem
once its table is decided, and keeps a passing report and its integral
sum_g g without a check (:func:`group_algebra`).  :func:`dual`
transposes a verified algebra without a check and takes its report and
the integral lines it holds.  Neither a report nor an integral line
reads a tensor, so a group algebra builds its multiplication, and a
dual both its tensors, on first read (`reporting.lazy`).

Associativity, the module law and every Hopf axiom are decided on a
generating set.  Associativity is the module law of the left regular
representation e_x -> L_x, the mult rows: L_(a b) = L_a L_b.  The a for
which the module or bialgebra law holds for all b form a subalgebra
(Light's associativity test, see :func:`generating_set`), so a few
greedily chosen basis generators S decide each law exactly once 1 lies
in it.  In a bialgebra, the rows where
coassociativity, the counit axiom or, for an anti-algebra map alpha with
alpha(1) = 1, the antipode identity holds form subalgebras too (see
:func:`verify_hopf`), so S decides those laws as well.  A refusal reruns
the full lexicographic scan, so a witness is always the first failing
index tuple in that order.  `check_group_table` does the same on a table.
The coalgebra laws are predicates on a coaction, Delta here, the
coaction of a comodule (algebra) in `cocyclic` and, in `actions`, the
dual coaction (:func:`dual_coaction`) of an action: the module-algebra
law is the comodule-algebra law of that coaction over dual(H), and
:func:`verify_coaction_algebra` decides both.  A failed module or
coaction-algebra law is refused here, by one AxiomError per law.

Structure tensors are stored once, sparse and canonical, as
:func:`sparse_tensor` builds them: mult[i][j] is the tuple of (k, c)
pairs of e_i e_j and comult[i] the tuple of (j, k, c) triples of
Delta(e_i), each sorted by index with zeros dropped; the antipode's
column i holds the (j, c) pairs of alpha(e_i) in the same form.  Unit
and counit are dense coefficient vectors.  `sparse_tensor` checks and
sums entries from outside (files, `zoo`); :func:`taft` writes its
multiplication cells, sharing equal ones, and its comultiplication and
antipode from closed forms, and :func:`dual` transposes H's tensors
straight into that form when they are first read.

Basis order is part of the data.  Tensor-square flattenings are always
lexicographic with the left factor varying slowest.

Left integrals are the invariants (:func:`fixed_points`) of the left
regular action, whose tensor is mult itself, solved at most once per Hopf
algebra object and kept on it, as the axiom report is.  The builtins
over a field hold the line of H and the line of H* from construction,
by theorem, and a dual of an object that holds them takes both, so
none of them solves; right integrals are the antipode image of the
left ones (Larson-Sweedler), with no solve of their own.
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .errors import (
    AxiomError,
    FormatError,
    ShapeError,
    UnsupportedDomainError,
)
from .linalg import ColumnMap
from .reporting import CheckResult, VerificationReport, lazy, record


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

    return _nested(cells, shape[:lead], ())


def _nested(cells, axes, prefix):
    """The cells under `prefix`, as tuples nested over the axes past it.

    A module function rather than a recursive closure: a closure that
    calls itself is a reference cycle, which would keep `cells` alive
    until the cyclic garbage collector runs.
    """
    if len(prefix) == len(axes):
        return tuple(cells.get(prefix, ()))
    return tuple([_nested(cells, axes, prefix + (i,)) for i in range(axes[len(prefix)])])


def matrix_from_triples(domain, n, entries):
    """n x n ColumnMap from entries (i, j, c): column i contains c in row j."""
    return ColumnMap(domain, n, sparse_tensor(domain, (n, n), entries, 1))


# ---------------------------------------------------------------------------
# algebras


@record
class AlgebraData:
    """Finite algebra: mult[i][j] holds the nonzero (k, c) pairs of e_i * e_j.

    A record: :func:`algebra_from_triples` decides the laws of data from
    outside, and derived algebras (a dual, a smash product S#H) take
    their laws from the validated data they are built from.  ``mult`` may
    be given as a `reporting.lazy` value, built on its first read, as a
    dual and a group algebra give it.
    """

    domain: object
    dim: int
    labels: tuple
    mult: tuple
    unit: tuple

    lazy_fields = ("mult",)

    @functools.cached_property
    def generators(self):
        """:func:`generating_set` of the algebra, worked out on first read."""
        return generating_set(self.domain, self.mult, self.unit)

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
        """The first (i, j, k) in lexicographic order with
        (e_i e_j) e_k != e_i (e_j e_k), or None.

        The module law of e_x -> L_x, column k of L_x being mult[x][k], by
        the predicate of :meth:`representation_witness`: once the unit axiom
        holds, the rows of ``generators`` decide it (see `generating_set`).
        The full scan runs on refusal, to find the witness, and otherwise;
        k is the first column where L_(i j) and L_i L_j differ.
        """
        dom, n, mult = self.domain, self.dim, self.mult
        left = [ColumnMap(dom, n, row) for row in mult]
        rows = self.generators
        if rows is not None and self.unit_witness() is not None:
            rows = None
        pair = _decide_on_generators(rows, functools.partial(_multiplicative, mult, left), n)
        if pair is None:
            return None
        i, j = pair
        lhs, rhs = _image(mult[i][j], left).cols, (left[i] @ left[j]).cols
        return (i, j, next(k for k in range(n) if lhs[k] != rhs[k]))

    def unit_witness(self):
        """The first j with 1 e_j != e_j or e_j 1 != e_j, or None.

        Column j of the left multiplication map L_1 is 1 e_j, and column
        j of the right one R_1 is e_j 1, so both are compared with the
        identity column by column.
        """
        dom, n, mult = self.domain, self.dim, self.mult
        unit = [(t, c) for t, c in enumerate(self.unit) if c]
        coeffs = [c for _, c in unit]
        left = ColumnMap.combination(
            dom, coeffs, [ColumnMap(dom, n, mult[t]) for t, _ in unit], n, n).cols
        right = ColumnMap.combination(
            dom, coeffs, [ColumnMap(dom, n, [row[t] for row in mult]) for t, _ in unit], n, n).cols
        one = dom.one
        return next(((j,) for j in range(n) if not left[j] == ((j, one),) == right[j]), None)

    def representation_witness(self, maps):
        """Witness that e_a -> maps[a] is not a unital algebra map, or None.

        maps are square ColumnMaps.  Returns ("unit",) when the unit does
        not act as the identity and (a, b) when e_a e_b does not act as
        maps[a] @ maps[b].  The rows a of ``generators`` decide the law:
        the a that satisfy it for all b form a subalgebra.
        """
        dom = self.domain
        n = maps[0].nrows
        if ColumnMap.combination(dom, self.unit, maps, n, n) != ColumnMap.identity(dom, n):
            return ("unit",)
        return _decide_on_generators(
            self.generators, functools.partial(_multiplicative, self.mult, maps), self.dim)

    def format_element(self, vec):
        return linalg.format_vector(self.domain, self.labels, vec)


def algebra_from_triples(domain, dim, labels, mult_triples, unit):
    """Validated algebra from entries (i, j, k, c) of e_i e_j and a unit
    vector: decides associativity, then the unit axiom, and raises
    AxiomError at the first failure."""
    mult = sparse_tensor(domain, (dim, dim, dim), mult_triples, 2)
    labels, unit = tuple(labels), tuple(domain.normalize(v) for v in unit)
    if len(labels) != dim or len(unit) != dim:
        raise ShapeError("label or unit length does not match dimension")
    return _checked_algebra(AlgebraData(domain, dim, labels, mult, unit))


def _checked_algebra(alg):
    """alg itself once associativity and then the unit axiom hold; raises
    AxiomError at the first failure."""
    witness = alg.associativity_witness()
    if witness is not None:
        raise AxiomError("associativity", witness)
    witness = alg.unit_witness()
    if witness is not None:
        raise AxiomError("unit", witness)
    return alg


def action_maps(domain, action, dim):
    """One ColumnMap per basis element of the acting algebra: action[a][m]
    holds the (t, c) pairs of e_a . e_m, which is column m of the map."""
    return [ColumnMap(domain, dim, block) for block in action]


def representation_map(domain, action, dim):
    """The map e_a -> (v -> e_a . v) into End(V), V of dimension dim: row
    u * dim + v of column a holds the coefficient of e_u in e_a . e_v.  V
    is faithful exactly when the map is injective."""
    return ColumnMap(domain, dim * dim, [
        tuple(sorted((u * dim + v, c) for v, col in enumerate(block) for u, c in col))
        for block in action
    ])


def verify_module_over_algebra(alg, action, check="module-law"):
    """Decides the module law of an algebra action on a vector space,
    (a b) . m = a . (b . m) and 1 . m = m, and raises AxiomError(check,
    witness) when it fails (see :meth:`AlgebraData.representation_witness`).

    action[a][m] holds the (t, c) pairs of e_a . e_m.
    """
    dim = len(action[0]) if action else 0
    witness = alg.representation_witness(action_maps(alg.domain, action, dim))
    if witness is not None:
        raise AxiomError(check, witness)


def _image(vec, maps):
    """The combination of maps[k] with the coefficients of a sparse vector
    of (k, c) pairs: the image of that element under e_k -> maps[k]."""
    m = maps[0]
    return ColumnMap.combination(
        m.domain, [c for _, c in vec], [maps[k] for k, _ in vec], m.nrows, m.ncols)


def _multiplicative(mult, maps, a, b):
    """Whether e_a e_b maps to maps[a] @ maps[b] under e_x -> maps[x]."""
    return _image(mult[a][b], maps) == maps[a] @ maps[b]


def _decide_on_generators(tested, holds, n, failures=None):
    """The first failure of a law closed under products, or None.

    When holds(a, b) for every a in `tested`, a generating set (see
    `generating_set`) or None, and every b < n, the law holds.  Otherwise
    the witness is the first of `failures`, the refusals of the full
    lexicographic loop: by default the pairs (a, b) where holds fails.
    """
    if tested is not None and all(holds(a, b) for a in tested for b in range(n)):
        return None
    if failures is None:
        failures = ((a, b) for a, b in itertools.product(range(n), repeat=2) if not holds(a, b))
    return next(failures, None)


def _product(domain, mult, u, v):
    """Product of two sparse vectors of (index, coeff) pairs, as a dict of
    its nonzero coefficients.  A dict loop, not `linalg.sparse_sum`, takes a b once."""
    mul, add = domain.mul, domain.add
    out = {}
    for i, a in u:
        row = mult[i]
        for j, b in v:
            ab = mul(a, b)
            for k, w in row[j]:
                w = mul(ab, w)
                out[k] = add(out[k], w) if k in out else w
    return {k: w for k, w in out.items() if w}


def generating_set(domain, mult, unit):
    """Basis indices S whose words span the algebra, for Light's test.

    The words are the unit, each e_s and their left-bracketed products
    (.. (e_s1 e_s2) ..) e_sk.  Let T be the set of a with L_(a b) = L_a L_b,
    i.e. (a b) y = a (b y), for all b and y, L_x being left multiplication
    by e_x.  T is a subspace, and for a, a' in T
    ((a a') b) y = (a (a' b)) y = a ((a' b) y) = a (a' (b y)) = (a a') (b y),
    so T is closed under products: if the unit and every e_s lie in T, so
    does every word, and T is the whole algebra.  Once the unit axiom
    holds, 1 lies in T, so testing the rows of S decides associativity
    exactly, in |S| dim compositions of maps instead of dim^2.  The same
    closure argument serves every law that is closed under products.

    S is found greedily: e_c joins S when it is not in the span of the
    words of the indices before it, and the span grows by one
    `linalg.echelon_insert` per product of a word with a generator.
    Returns None over a domain that is not a field, and when |S| + 1
    reaches the dimension, where the test costs as much as the full scan;
    below dimension 3 it always does, so no span is built there.
    """
    dim = len(unit)
    if not domain.is_field or dim < 3:
        return None
    one = domain.one
    pivots, words, gens = {}, [], []

    def add(word):
        """Insert a word into the span; whether it was new there."""
        if linalg.echelon_insert(domain, pivots, word) is None:
            return False
        words.append([word, 0])  # the word, and how many generators it was multiplied by
        return True

    add(tuple((t, c) for t, c in enumerate(unit) if c))
    for c in range(dim):
        if len(pivots) == dim:
            break
        if not add(((c, one),)):
            continue
        gens.append(c)
        if len(gens) + 1 >= dim:
            return None
        # each word times each generator, once; the loop reaches the new words
        for entry in words:
            word, done = entry
            for g in gens[done:]:
                add(_product(domain, mult, word, ((g, one),)).items())
            entry[1] = len(gens)
            if len(pivots) == dim:
                break
    return tuple(gens) if len(gens) + 1 < dim else None


# ---------------------------------------------------------------------------
# Hopf algebras


@record
class HopfAlgebraData:
    """Hopf structure on top of an AlgebraData.

    comult[i] holds the nonzero (j, k, c) triples of Delta(e_i), c being
    the coefficient of e_j (x) e_k; counit is a coefficient vector;
    antipode is the ColumnMap whose column i is the image of e_i.  No Hopf
    axioms are enforced here, so tests can build corrupted instances;
    `build_hopf`, and with it `taft` and `sweedler`, runs
    :func:`verify_hopf`, raises on failure and keeps the passing report as
    ``report``, which is None on data that has not been verified.
    :func:`group_algebra` takes its report by theorem instead.
    ``integrals`` holds the left integral space, ``"left"``, from its
    first solve on (:func:`left_integrals`), so it is not solved twice
    for one object.  Over a field, `taft`, `sweedler` and `group_algebra`
    hold it from construction, with ``"dual"``, the left integral line of
    H* on the dual basis; :func:`dual` swaps the two.  ``predual`` is the
    Hopf algebra that :func:`dual` transposed to build this one, else
    None.  None of the three is a field: they stay out of ``==``, the
    hash and the repr.  ``comult`` may be given as a `reporting.lazy`
    value, built on its first read, as a dual gives it.
    """

    algebra: AlgebraData
    comult: tuple
    counit: tuple
    antipode: ColumnMap

    lazy_fields = ("comult",)

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.counit) != n:
            raise ShapeError("counit length mismatch")
        if self.antipode.nrows != n or self.antipode.ncols != n:
            raise ShapeError("antipode shape mismatch")
        object.__setattr__(self, "report", None)
        object.__setattr__(self, "integrals", {})
        object.__setattr__(self, "predual", None)

    @property
    def domain(self):
        return self.algebra.domain

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    @functools.cached_property
    def dual_product(self):
        """:func:`dual_mult` of this Hopf algebra, the multiplication tensor
        of dual(H) over any domain, built on first read: the dual's
        ``mult`` and the module-algebra and Galois checks read this one."""
        return dual_mult(self)

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

    Each failing check carries one witnessing basis index tuple, the
    first failure of the full loop in index order.  The algebra axioms
    were decided when h.algebra was built by :func:`algebra_from_triples`,
    or follow from the data it was derived from, so both pass here.
    Every other law is decided on the rows of the algebra's generators
    (see `generating_set`), the set of rows where it holds being a
    subalgebra that holds the unit; when a row or a gate below refuses,
    or there are no generators, the full loop finds the witness.

    The bialgebra law is decided first: the a with Delta(ab) =
    Delta(a) Delta(b) and counit(ab) = counit(a) counit(b) for all b form
    a subspace closed under products, which holds the unit once
    Delta(1) = 1 (x) 1 and counit(1) = 1.  When the law holds, Delta and
    the counit are unital algebra maps, and so are (Delta (x) id) Delta,
    (id (x) Delta) Delta, (counit (x) id) Delta, (id (x) counit) Delta and
    id.  The equalizer {a : f(a) = g(a)} of two unital algebra maps f, g
    is a subalgebra that holds 1, so the generator rows decide
    coassociativity and the counit axiom.

    In a bialgebra, an anti-algebra map alpha with alpha(1) = 1 is an
    antipode once the antipode identity holds on generators (Montgomery,
    Hopf Algebras and Their Actions on Rings, CBMS 82, 1993, Prop. 1.5.10):
    when alpha(a_1) a_2 = counit(a) 1 and alpha(b_1) b_2 = counit(b) 1,
    alpha((ab)_1) (ab)_2 = alpha(b_1) alpha(a_1) a_2 b_2 = counit(ab) 1,
    and the same holds on the other side, and the identity holds at 1.
    Anti-multiplicativity is itself decided on generators: the a with
    alpha(a x) = alpha(x) alpha(a) for all x, i.e. alpha L_a =
    R_alpha(a) alpha with R_y right multiplication by y, form a subalgebra,
    which holds 1 once alpha(1) = 1.  So alpha(1) = 1 and those two
    compositions per generator gate the antipode's generator rows.
    """
    alg, dom = h.algebra, h.domain
    n = alg.dim
    unit = [(t, c) for t, c in enumerate(alg.unit) if c]
    bialgebra = _bialgebra_witness(h, unit)
    rows = alg.generators if bialgebra is None else None
    antipode_rows = rows if rows is not None and _antimultiplicative(h, rows, unit) else None
    # associativity and the unit axiom pass: they were decided with h.algebra
    return _report((
        None,
        None,
        _first_failing_row(rows, functools.partial(_coassociative_at, dom, h.comult, h.comult), n),
        _first_failing_row(rows, functools.partial(_counital_at, h), n),
        bialgebra,
        _first_failing_row(antipode_rows, functools.partial(_antipode_at, h, unit), n),
    ))


def _first_failing_row(rows, holds, n):
    """(i,) for the first i < n where holds(i) fails, or None.  When every
    row of `rows`, generators or None, holds, the law holds and no other
    row is read."""
    if rows is not None and all(map(holds, rows)):
        return None
    return next(((i,) for i in range(n) if not holds(i)), None)


def _coassociative_at(dom, coaction, comult, i):
    """Whether (rho (x) id) rho(e_i) = (id (x) Delta) rho(e_i) for a right
    coaction rho, coaction[i] holding the (j, h, c) triples of rho(e_i) in
    the layout of Delta: Delta coacts on H, and `cocyclic` passes the
    coaction of a comodule to this and the predicates below."""
    mul = dom.mul
    rho = coaction[i]
    left = linalg.sparse_sum(
        dom, (((a, b, k), mul(c, c2)) for j, k, c in rho for a, b, c2 in coaction[j]))
    right = linalg.sparse_sum(
        dom, (((j, a, b), mul(c, c2)) for j, k, c in rho for a, b, c2 in comult[k]))
    return left == right


def _right_counital_at(dom, coaction, counit, i):
    """Whether (id (x) counit) rho(e_i) = e_i."""
    mul = dom.mul
    return linalg.sparse_sum(
        dom, ((j, mul(c, counit[k])) for j, k, c in coaction[i])) == {i: dom.one}


def _counital_at(h, i):
    """Whether (counit (x) id) Delta(e_i) = e_i = (id (x) counit) Delta(e_i)."""
    dom, counit = h.domain, h.counit
    mul = dom.mul
    return (linalg.sparse_sum(dom, ((k, mul(c, counit[j])) for j, k, c in h.comult[i]))
            == {i: dom.one} and _right_counital_at(dom, h.comult, counit, i))


def _unital_coaction(dom, coaction, unit, h_unit):
    """Whether rho(1) = 1 (x) 1; unit and h_unit hold the nonzero (t, c)
    of the units of the coacted algebra and of H."""
    mul = dom.mul
    return linalg.sparse_sum(dom, (
        ((j, k), mul(c, w)) for t, c in unit for j, k, w in coaction[t]
    )) == linalg.sparse_sum(dom, (((i, j), mul(a, b)) for i, a in unit for j, b in h_unit))


def _coaction_multiplicative(dom, mult, coaction, h_mult, i, j):
    """Whether rho(e_i e_j) = rho(e_i) rho(e_j) in A (x) H, mult and h_mult
    being the multiplications of the coacted algebra A and of H.  The left
    side is a dict loop, not `linalg.sparse_sum`, as is `_square_sum`."""
    mul, add = dom.mul, dom.add
    lhs = {}
    for k, a in mult[i][j]:
        for u, v, c in coaction[k]:
            key, c = (u, v), mul(a, c)
            lhs[key] = add(lhs[key], c) if key in lhs else c
    return {key: c for key, c in lhs.items() if c} == _square_sum(
        dom, mult, h_mult, coaction[i], coaction[j])


def verify_coaction_algebra(check, alg, coaction, h_unit, h_mult):
    """Decides that a coaction rho of H on the algebra alg is an algebra
    map, h_unit (a dense vector) and h_mult being H's unit and product.

    Raises AxiomError(check + "-unit", ()) when rho(1) != 1 (x) 1, then
    AxiomError(check + "-mult", (s, t)) at the first pair with
    rho(e_s e_t) != rho(e_s) rho(e_t).  Once rho(1) = 1 (x) 1, the s that
    satisfy the product law for every t form a subalgebra that holds 1, as
    rho(s s' t) = rho(s) rho(s' t) = rho(s) rho(s') rho(t) = rho(s s') rho(t);
    so the rows of the algebra's generators decide it, and a refusal
    reruns the full loop for the first failing pair.
    """
    dom = alg.domain
    unit, h_unit = ([(t, c) for t, c in enumerate(v) if c] for v in (alg.unit, h_unit))
    if not _unital_coaction(dom, coaction, unit, h_unit):
        raise AxiomError(check + "-unit", ())
    witness = _decide_on_generators(alg.generators, functools.partial(
        _coaction_multiplicative, dom, alg.mult, coaction, h_mult), alg.dim)
    if witness is not None:
        raise AxiomError(check + "-mult", witness)


def _antipode_at(h, unit, i):
    """Whether mu (alpha (x) id) Delta(e_i) = counit(e_i) 1 =
    mu (id (x) alpha) Delta(e_i); unit holds the nonzero (t, c) of 1."""
    dom, alpha, mult, delta = h.domain, h.antipode.cols, h.algebra.mult, h.comult[i]
    mul = dom.mul
    target = linalg.sparse_sum(dom, ((u, mul(h.counit[i], a)) for u, a in unit))
    return (linalg.sparse_sum(dom, (
        (u, mul(mul(c, v), w)) for j, k, c in delta for t, v in alpha[j] for u, w in mult[t][k]
    )) == target and linalg.sparse_sum(dom, (
        (u, mul(mul(c, v), w)) for j, k, c in delta for t, v in alpha[k] for u, w in mult[j][t]
    )) == target)


def _antimultiplicative(h, rows, unit):
    """Whether alpha(1) = 1 and alpha L_a = R_alpha(e_a) alpha for each a in
    rows, L_y and R_y being left and right multiplication by y: alpha is
    then an anti-algebra map when rows generate (see `verify_hopf`)."""
    dom, n, mult, alpha = h.domain, h.dim, h.algebra.mult, h.antipode
    mul = dom.mul
    one = linalg.sparse_sum(dom, ((u, mul(c, v)) for t, c in unit for u, v in alpha.cols[t]))
    if one != dict(unit):
        return False
    for a in rows:
        image = alpha.cols[a]
        # column x of R_t is e_x e_t
        right = [ColumnMap(dom, n, [row[t] for row in mult]) for t, _ in image]
        if (alpha @ ColumnMap(dom, n, mult[a])
                != ColumnMap.combination(dom, [c for _, c in image], right, n, n) @ alpha):
            return False
    return True


def _bialgebra_witness(h, unit):
    """("unit",) when Delta(1) != 1 (x) 1 or counit(1) != 1, else the first
    (i, j) with Delta(e_i e_j) != Delta(e_i) Delta(e_j) or counit(e_i e_j) !=
    counit(e_i) counit(e_j), decided on generators (see `verify_hopf`), or
    None; unit holds the nonzero (t, c) of 1."""
    alg, dom = h.algebra, h.domain
    if not _unital_coaction(dom, h.comult, unit, unit) or h.counit_vec(alg.unit) != dom.one:
        return ("unit",)
    return _decide_on_generators(alg.generators, functools.partial(_bialgebra_holds, h), alg.dim)


def _bialgebra_holds(h, i, j):
    """Whether Delta(e_i e_j) = Delta(e_i) Delta(e_j) and
    counit(e_i e_j) = counit(e_i) counit(e_j)."""
    alg, dom = h.algebra, h.domain
    if not _coaction_multiplicative(dom, alg.mult, h.comult, alg.mult, i, j):
        return False
    eps = dom.zero
    for k, c in alg.mult[i][j]:
        eps = dom.add(eps, dom.mul(c, h.counit[k]))
    return eps == dom.mul(h.counit[i], h.counit[j])


def _square_sum(dom, mult, h_mult, u, v):
    """Product in A (x) H of two elements given as (a, b, c) triples, as a
    dict (s, t) -> c of its nonzero coefficients; mult and h_mult are the
    multiplications of A and H.

    Uses (e_a (x) e_b)(e_c (x) e_d) = e_a e_c (x) e_b e_d.  A dict loop,
    not `linalg.sparse_sum`, takes c1 c2 w1 once per term of e_a e_c.
    """
    mul, add = dom.mul, dom.add
    out = {}
    for a, b, c1 in u:
        row, h_row = mult[a], h_mult[b]
        for c, d, c2 in v:
            c12, right = mul(c1, c2), h_row[d]
            for s, w1 in row[c]:
                cw = mul(c12, w1)
                for t, w2 in right:
                    key, w = (s, t), mul(cw, w2)
                    out[key] = add(out[key], w) if key in out else w
    return {key: w for key, w in out.items() if w}


# the checks of a Hopf axiom report, in report order
_HOPF_CHECKS = ("associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode")


def _report(witnesses):
    """The axiom report with one witness, or None, per name of _HOPF_CHECKS."""
    return VerificationReport(tuple(
        CheckResult(name, witness is None, witness)
        for name, witness in zip(_HOPF_CHECKS, witnesses, strict=True)))


def build_hopf(algebra, comult, counit, antipode):
    """Validated Hopf algebra; raises AxiomError with the first failure.

    The algebra axioms were decided when `algebra` was built; this runs
    :func:`verify_hopf` once and keeps its report on the result, so a
    caller that reports the axioms reads it instead of checking again.
    """
    h = HopfAlgebraData(algebra, comult, counit, antipode)
    report = verify_hopf(h)
    if not report.passed:
        bad = report.failures()[0]
        raise AxiomError(bad.name, bad.witness)
    object.__setattr__(h, "report", report)
    return h


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
    # Light's test, as for algebras: the a with (xa)y = x(ay) for all x, y
    # form a submagma that holds the identity
    def associates(i, j, k):
        return table[table[i][j]][k] == table[i][table[j][k]]

    witness = _decide_on_generators(
        group_generators(table), lambda a, i: all(associates(i, a, k) for k in range(n)), n,
        (w for w in itertools.product(range(n), repeat=3) if not associates(*w)))
    if witness is not None:
        raise AxiomError("group-associativity", witness)
    return inverses


def group_generators(table):
    """Elements S of a multiplication table whose products
    (.. ((1 s1) s2) ..) sk reach every element, for Light's test.

    The table analogue of `generating_set`: c joins S when the products of
    the elements before it miss c.  Returns None when |S| + 1 reaches the
    order of the table.
    """
    n = len(table)
    gens, reached = [], {0}
    for c in range(n):
        if c in reached:
            continue
        gens.append(c)
        if len(gens) + 1 >= n:
            return None
        reached.add(c)
        words = list(reached)
        for w in words:
            for g in gens:
                if table[w][g] not in reached:
                    reached.add(table[w][g])
                    words.append(table[w][g])
    return tuple(gens) if len(gens) + 1 < n else None


def group_algebra(domain, table, labels=None):
    """Group algebra with Delta(g) = g (x) g, counit 1, antipode g^-1.

    Once `check_group_table` has decided the table, kG is a Hopf algebra
    by a theorem, and over a field its left integrals are the line of
    sum_g g, which is also a right integral, and those of k^G = (kG)*
    the line of 1*, the indicator of the identity (Montgomery, Hopf
    Algebras and Their Actions on Rings, CBMS 82, 1993, sections 1.5 and
    2.1).  So it is built as a record without `build_hopf`: it keeps the
    passing report that :func:`verify_hopf` returns on kG, and over a
    field both integral lines, whose canonical bases are the all-ones
    vector and the unit vector at index 0.  Neither reads the
    multiplication tensor, so it is built from the table on first read
    (:func:`group_mult`)."""
    inverses = check_group_table(table)
    n = len(table)
    if labels is None:
        labels = ("1",) + tuple(f"g{i}" for i in range(1, n))
    if len(labels) != n:
        raise ShapeError("label or unit length does not match dimension")
    one = domain.one
    mult = lazy(functools.partial(group_mult, domain, tuple(map(tuple, table))))
    alg = AlgebraData(domain, n, tuple(labels), mult, linalg.unit_vec(domain, n, 0))
    comult = tuple(((i, i, one),) for i in range(n))
    antipode = ColumnMap(domain, n, [((g, one),) for g in inverses])
    h = HopfAlgebraData(alg, comult, (one,) * n, antipode)
    object.__setattr__(h, "report", _report((None,) * len(_HOPF_CHECKS)))
    if domain.is_field:
        h.integrals["left"] = IntegralSpace("left", ((one,) * n,))
        h.integrals["dual"] = IntegralSpace("left", (linalg.unit_vec(domain, n, 0),))
    return h


def group_mult(domain, table):
    """The multiplication tensor of kG: e_g e_h = e_(table[g][h])."""
    one = domain.one
    return tuple(tuple(((k, one),) for k in row) for row in table)


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
    is extended as an anti-homomorphism (E. J. Taft, PNAS 68, 1971).

    Both maps are built from closed forms, exponents of g and q taken
    mod n.  As (x (x) 1)(g (x) x) = q (g (x) x)(x (x) 1), the q-binomial
    formula (Kassel, Quantum Groups, GTM 155, 1995, section IV.2) gives

        Delta(g^a x^b) = sum_{k=0..b} C(b,k)_q g^(a+b-k) x^k (x) g^a x^(b-k),

    with the Gaussian binomials from C(b,k) = C(b-1,k-1) + q^k C(b-1,k),
    and alpha(x)^b alpha(g)^a collects to one term:

        alpha(g^a x^b) = (-1)^b q^(-b(b-1)/2 - ab) g^(-a-b) x^b.

    T_n(q) is generated by g and x, so over a field the algebra's
    generating set is (1, n), the indices of g and x, which is what
    `generating_set` would find, and no search runs.  Light's test of the
    algebra laws and `verify_hopf` still run on every build, on those
    generators, so a wrong coefficient raises AxiomError.  Over Z there
    is no generating set, and the laws are decided on every row.

    Over a field it holds both integral lines by theorem (Larson and
    Sweedler, Amer. J. Math. 91, 1969; Montgomery, CBMS 82, 1993, section
    2.1): the left integrals of H are the line of sum_a g^a x^(n-1), and
    those of H* the line of (g x^(n-1))*, whatever q is.  Each has equal
    nonzero coefficients, so it is the canonical basis `fixed_points`
    would return.
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

    # q^n = 1, so every exponent of q is taken mod n
    qpow = [domain.one]
    for _ in range(n - 1):
        qpow.append(domain.mul(qpow[-1], q))
    # every stored index is read from this list: CPython caches no int past
    # 256, and a fresh one per index of Delta would cost about 1 MB at n = 32
    basis = list(range(dim))

    # (g^a x^b)(g^c x^d) = q^(bc) g^(a+c) x^(b+d), and 0 once b + d >= n:
    # each cell holds one canonical pair or none, so the tensor is built
    # directly in its stored form, by basis index.  As q^n = 1, the cells
    # are the dim * n pairs (k, q^e) with e < n, each built once and shared
    cells = [[((k, w),) for w in qpow] for k in basis]
    mult = tuple(
        tuple(
            cells[idx((a + c) % n, b + d)][b * c % n] if b + d < n else ()
            for d in range(n) for c in range(n)
        )
        for b in range(n) for a in range(n)
    )
    unit = linalg.unit_vec(domain, dim, idx(0, 0))
    alg = AlgebraData(domain, dim, tuple(labels), mult, unit)
    if domain.is_field:
        # the presentation's generators g and x; `generators` is a cached property
        object.__setattr__(alg, "generators", (idx(1, 0), idx(0, 1)))
    alg = _checked_algebra(alg)

    # the Gaussian binomials C(b, k)_q for b < n, by the q-Pascal rule
    one, add, mul = domain.one, domain.add, domain.mul
    binomials = [[one]]
    for b in range(1, n):
        prev = binomials[-1]
        binomials.append([one, *(add(prev[k - 1], mul(qpow[k], prev[k])) for k in range(1, b)),
                          one])
    # the q-binomial formula; the first index k n + (a + b - k) % n rises
    # with k, so each cell comes out sorted
    comult = [
        tuple((basis[idx((a + b - k) % n, k)], basis[idx(a, b - k)], c)
              for k, c in enumerate(binomials[b]) if c)
        for b in range(n) for a in range(n)
    ]

    # counit(g^a x^b) = [b == 0]
    counit = [domain.zero] * dim
    for a in range(n):
        counit[idx(a, 0)] = one
    counit = tuple(counit)

    # alpha(g^a x^b) = (-1)^b q^(-b(b-1)/2 - ab) g^(-a-b) x^b, one term per column
    cols = []
    for b in range(n):
        for a in range(n):
            c = qpow[(-(b * (b - 1) // 2) - a * b) % n]
            cols.append(((basis[idx((-a - b) % n, b)], domain.neg(c) if b % 2 else c),))
    antipode = ColumnMap(domain, dim, cols)

    h = build_hopf(alg, tuple(comult), counit, antipode)
    if domain.is_field:
        # sum_a g^a x^(n-1) is 1 at the last n indices, those of x^(n-1)
        h.integrals["left"] = IntegralSpace("left", ((domain.zero,) * idx(0, n - 1) + (one,) * n,))
        h.integrals["dual"] = IntegralSpace("left", (linalg.unit_vec(domain, dim, idx(1, n - 1)),))
    return h


def dual(h):
    """Dual Hopf algebra on the dual basis, built as a transposition.

    Multiplication is the transpose of the comultiplication, and so on.
    Every axiom of dual(H) is the transpose of an axiom of H, so the dual
    is built without a check and takes H's report.  An h without a report
    is verified first, by :func:`build_hopf`, which raises its first failure.
    Neither the report nor the integrals read the dual's tensors, so its
    `mult` (:func:`dual_mult`) and `comult` (:func:`dual_comult`) are
    built on first read, its `mult` as h's ``dual_product``, and the dual
    keeps h as ``predual``.
    dual(dual(H)) = H in coordinates: its tensors are H's own objects, and
    the left integral line of dual(H) is H's ``"dual"`` line and its
    ``"dual"`` line is H's left one: the dual takes the lines h holds,
    swapped, and a line that h lacks is solved on first read
    (:func:`left_integrals`).
    """
    dom = h.domain
    if not dom.is_field:
        raise UnsupportedDomainError("dual needs a field domain")
    report = h.report
    if report is None:
        report = build_hopf(h.algebra, h.comult, h.counit, h.antipode).report
    k = h.predual
    if k is None:
        mult, comult = (lambda: h.dual_product), functools.partial(dual_comult, h)
    else:
        # the transpose of a transpose is the tensor itself
        mult, comult = (lambda: k.algebra.mult), (lambda: k.comult)
    labels = tuple(f"{lab}*" for lab in h.labels)
    alg = AlgebraData(dom, h.dim, labels, lazy(mult), tuple(h.counit))
    d = HopfAlgebraData(alg, lazy(comult), tuple(h.algebra.unit), h.antipode.transpose())
    object.__setattr__(d, "report", report)
    object.__setattr__(d, "predual", h)
    for side, other in (("left", "dual"), ("dual", "left")):
        if other in h.integrals:
            d.integrals[side] = h.integrals[other]
    return d


def dual_mult(h):
    """The multiplication tensor of dual(H) on the dual basis, over any
    domain: e_i* e_j* holds comult[k]'s coefficient of e_i (x) e_j on e_k*.

    H's comult is canonical, so reading it in index order appends each
    cell's entries sorted and once: the transpose comes out canonical.
    """
    n = h.dim
    cells = {}
    for k, g in enumerate(h.comult):
        for i, j, c in g:
            cells.setdefault((i, j), []).append((k, c))
    return tuple(tuple(tuple(cells.get((i, j), ())) for j in range(n)) for i in range(n))


def dual_comult(h):
    """The comultiplication tensor of dual(H) on the dual basis:
    Delta(e_i*) holds mult[j][k]'s coefficient of e_i on e_j* (x) e_k*,
    canonical as in :func:`dual_mult`."""
    cells = [[] for _ in range(h.dim)]
    for j, row in enumerate(h.algebra.mult):
        for k, cell in enumerate(row):
            for i, c in cell:
                cells[i].append((j, k, c))
    return tuple(map(tuple, cells))


def dual_coaction(action, dim):
    """The right dual(H)-coaction sigma(e_m) = sum_a (e_a . e_m) (x) e_a* of
    an H-action on a space of dimension dim, the module/comodule dictionary
    with the pairing fixed as evaluation on the stored bases.

    coaction[m] holds the (m', a, c) triples of sigma(e_m), sorted, in the
    layout of Delta.  Each cell action[a][m] is canonical, so each (m', a)
    occurs once and the triples are canonical too.
    """
    return tuple(
        tuple(sorted((t, a, c) for a, block in enumerate(action) for t, c in block[m]))
        for m in range(dim)
    )


# ---------------------------------------------------------------------------
# integrals


@record
class IntegralSpace:
    side: str
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)


def fixed_points(h, action):
    """Canonical echelon basis of V^H = {v : e_a v = counit(e_a) v for all a}.

    action[a][m] holds the (t, c) pairs of e_a . e_m, for every a of the
    algebra's generators (every basis index when it has none).  V^H is
    the kernel of the stacked system of the maps v -> e_a v - counit(e_a) v
    over those a.  Generators of H as an algebra suffice: for each v, the
    h with h v = counit(h) v form a subalgebra that holds the unit, as
    (ab) v = a (counit(b) v) = counit(ab) v.  The left integrals are the
    fixed points of the left regular action, whose tensor is mult.
    """
    dom = h.domain
    rows = h.algebra.generators or range(h.dim)
    dim = len(action[rows[0]])
    terms = (
        ((k * dim + t, m), c)
        for k, a in enumerate(rows) for m, col in enumerate(action[a]) for t, c in col
    )
    shifts = (
        ((k * dim + m, m), dom.neg(h.counit[a]))
        for k, a in enumerate(rows) if h.counit[a] for m in range(dim)
    )
    stacked = ColumnMap.from_entries(dom, len(rows) * dim, dim, itertools.chain(terms, shifts))
    return linalg.kernel_basis(stacked)


def _integral_space(h):
    """Left integrals are the invariants of H acting on itself by
    e_a . e_i = e_a e_i, whose tensor is mult.  Only the algebra's
    generators act (see `fixed_points`); all of H when it has none.  The
    space is a line (Larson-Sweedler), so no dimension check follows."""
    linalg.require_field(h.domain, "integral computation")
    return IntegralSpace("left", fixed_points(h, h.algebra.mult))


def left_integrals(h):
    """Basis of {t : h t = counit(h) t}, solved on first read and kept on h.

    A builtin over a field holds it from construction (see :func:`taft`
    and :func:`group_algebra`), and so does the dual of one (see
    :func:`dual`), so those solve nothing here."""
    space = h.integrals.get("left")
    if space is None:
        space = h.integrals["left"] = _integral_space(h)
    return space


def right_integrals(h):
    """S(t) for the left integral t, scaled to a leading 1: the echelon
    basis of the right integrals, as S(t) h = S(S^-1(h) t) = counit(h) S(t)
    and S is bijective (Larson-Sweedler)."""
    dom = h.domain
    image = h.antipode.apply(left_integrals(h).basis[0])
    lead = dom.inv(next(x for x in image if x != dom.zero))
    return IntegralSpace("right", (tuple(dom.mul(lead, x) for x in image),))


def is_semisimple(h):
    """Larson-Sweedler / Maschke criterion: counit of the integral is nonzero."""
    return h.counit_vec(left_integrals(h).basis[0]) != h.domain.zero


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
