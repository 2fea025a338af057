"""Z-lattices: associated orders, Hopf orders, integral tameness.

A lattice L in Q^n is held by its scale, the least d with d.L inside
Z^n, and the nonzero rows of the Hermite normal form of d.L.  Both
depend on L alone, so two lattices are equal exactly when their fields
are, and every verdict here is reproducible bit for bit.  Membership
and coordinates come by substitution down the Hermite rows, on ints:
the vector's denominators are cleared once, and the residual is held
over one integer denominator that grows only when a pivot does not
divide it (Cohen, GTM 138, 2.4).  A `Fraction` is built only for a
coordinate that is not integral; dense `Matrix` appears only over Z.

The base principal ideal domain is Z only; obstructions at individual
primes are reported through the Smith invariant factors of the fixed
lattice modulo the image of the integral.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import actions as actions_mod
from . import hopf as hopf_mod
from . import linalg
from .errors import PreconditionError, ShapeError
from .linalg import QQ, ZZ, ColumnMap, Matrix, _integral
from .reporting import lazy, record


@record
class IntegerLattice:
    """Full- or partial-rank lattice L in Q^n, held canonically.

    ``scale`` is the least d with d.L inside Z^n: the lcm of the
    denominators of any generating set.  ``rows`` are the nonzero rows
    of the Hermite normal form of d.L, as tuples of ints.
    """

    ambient_dim: int
    scale: int
    rows: tuple

    @classmethod
    def from_generators(cls, ambient_dim, vectors):
        vectors = [tuple(QQ.normalize(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError("generator length mismatch")
        scale = math.lcm(*(x._denominator for v in vectors for x in v))
        integer_rows = [[x._numerator * (scale // x._denominator) for x in v] for v in vectors]
        return cls(ambient_dim, scale, linalg.hermite_basis(Matrix(ZZ, integer_rows)))

    @property
    def rank(self):
        return len(self.rows)

    @functools.cached_property
    def _supports(self):
        """The nonzero (column, entry) pairs of each Hermite row, the
        pivot first."""
        return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in self.rows)

    def generators(self):
        """The canonical generators, rows / scale; integral entries are
        the shared small-integer objects where they can be."""
        s = self.scale
        return [tuple(Fraction(x, s) if x % s else _integral(x // s) for x in r)
                for r in self.rows]

    def _substitute(self, vec):
        """The coordinates of vec in the lattice basis as (numerator,
        denominator) int pairs, or None when vec is outside the span.

        The coordinates c satisfy sum c_i row_i = scale . vec.  With vec's
        denominators cleared, scale . vec = rest / den for ints rest and
        den; each Hermite row takes rest[p] / row[p] at its pivot p, after
        den and rest grow by the least factor that makes the division
        exact."""
        if len(vec) != self.ambient_dim:
            raise ShapeError("right-hand side length mismatch")
        vec = [x if type(x) is Fraction else QQ.normalize(x) for x in vec]
        den = math.lcm(*(x._denominator for x in vec))
        g = math.gcd(den, self.scale)
        lift = self.scale // g
        rest = [x._numerator * (den // x._denominator) * lift for x in vec]
        den //= g
        out = []
        for support in self._supports:
            p, a = support[0]
            r = rest[p]
            if r % a:
                grow = a // math.gcd(a, r)
                den *= grow
                rest = [x * grow for x in rest]
                r *= grow
            q = r // a
            if q:
                for j, b in support:
                    rest[j] -= q * b
            out.append((q, den))
        return None if any(rest) else out

    def coords(self, vec):
        """Rational coordinates of vec in the lattice basis, or None, by
        substitution down the echelon Hermite rows."""
        pairs = self._substitute(vec)
        if pairs is None:
            return None
        return tuple(Fraction(q, d) if q % d else _integral(q // d) for q, d in pairs)

    def integer_coords(self, vec):
        """The coordinates of vec as ints, or None when vec is outside L."""
        pairs = self._substitute(vec)
        if pairs is None or any(q % d for q, d in pairs):
            return None
        return tuple(q // d for q, d in pairs)

    def contains(self, vec):
        return self.integer_coords(vec) is not None


def standard_lattice(n):
    return IntegerLattice(n, 1, tuple(linalg.unit_vec(ZZ, n, i) for i in range(n)))


@record
class LatticeModuleData:
    """A lattice with an H-action on its ambient Q-space.

    ``action`` holds one ambient ColumnMap per basis element of H; the
    module law is verified on the ambient space at construction.  The
    optional algebra encodes the multiplication of the ambient S for the
    rational cross-check.
    """

    hopf: hopf_mod.HopfAlgebraData
    lattice: IntegerLattice
    action: tuple
    unit: tuple
    algebra: hopf_mod.AlgebraData | None = None

    def __post_init__(self):
        n = self.lattice.ambient_dim
        if self.hopf.domain != QQ:
            raise ShapeError("lattice modules need a Hopf algebra over Q")
        if len(self.action) != self.hopf.dim:
            raise ShapeError("one action matrix per Hopf basis element required")
        for m in self.action:
            if m.nrows != n or m.ncols != n:
                raise ShapeError("ambient action matrix shape mismatch")
        if len(self.unit) != n:
            raise ShapeError("unit vector length mismatch")
        hopf_mod.verify_module_over_algebra(self.hopf.algebra, [m.cols for m in self.action])

    def action_of(self, hvec):
        """ColumnMap of the ambient action of a general element of H."""
        n = self.lattice.ambient_dim
        return ColumnMap.combination(QQ, hvec, self.action, n, n)


@record
class OrderData:
    """A lattice inside a rational Hopf algebra, in H-coordinates."""

    hopf: hopf_mod.HopfAlgebraData
    lattice: IntegerLattice

    @property
    def rank(self):
        return self.lattice.rank

    @functools.cached_property
    def hopf_order(self):
        """:func:`is_hopf_order` of the order, decided on first read."""
        return is_hopf_order(self)


def group_ring_order(h):
    """The Z-span of the stored basis of H (e.g. ZG inside QG)."""
    return OrderData(h, standard_lattice(h.dim))


def associated_order(h, module):
    """The order {h in H : h . S <= S}, computed through normal forms.

    Stacks the integrality conditions in lattice coordinates, takes the
    Hermite basis of the row lattice they generate, and inverts it: the
    columns of the inverse generate the dual lattice, which is exactly
    the associated order.  It is a unital subalgebra because the module
    law holds (`LatticeModuleData` decides it): 1 acts as the identity,
    and a . (b . L) lies in L when a . L and b . L do.
    """
    if module.hopf != h:
        raise ShapeError("module was built over a different Hopf algebra")
    m = h.dim
    lat = module.lattice
    rows = []
    for j, gen in enumerate(lat.generators()):
        images = []
        for a in range(m):
            moved = module.action[a].apply(gen)
            coords = lat.coords(moved)
            if coords is None:
                raise ShapeError(
                    "the H-action does not preserve the rational span of the lattice"
                )
            images.append(coords)
        for t in range(lat.rank):
            rows.append(tuple(images[a][t] for a in range(m)))
    row_lattice = IntegerLattice.from_generators(m, rows)
    if row_lattice.rank < m:
        raise PreconditionError(
            "associated order is not a lattice; the action is not faithful"
        )
    # rows = canonical generators
    g = ColumnMap.from_cols(QQ, m, row_lattice.generators()).transpose()
    inv = linalg.invert(g)
    order_lattice = IntegerLattice.from_generators(m, [inv.col(j) for j in range(m)])
    return OrderData(h, order_lattice)


@record
class HopfOrderReport:
    contains_unit: bool
    mult_closed: bool
    comult_stable: bool
    counit_integral: bool
    antipode_stable: bool
    witness: tuple | None

    @property
    def is_hopf_order(self):
        return (
            self.contains_unit
            and self.mult_closed
            and self.comult_stable
            and self.counit_integral
            and self.antipode_stable
        )


def is_hopf_order(order):
    """Closure flags for an order, all via exact lattice membership."""
    h = order.hopf
    lat = order.lattice
    if lat.rank != h.dim:
        raise PreconditionError("Hopf-order checks need a full-rank order")
    gens = lat.generators()
    contains_unit = lat.contains(h.algebra.unit)
    # the first failure of each flag; the witness is the first of them
    mult = next((("mult", i, j) for i, u in enumerate(gens) for j, v in enumerate(gens)
                 if not lat.contains(h.algebra.mul_vec(u, v))), None)
    comult = next((("comult", i) for i, u in enumerate(gens)
                   if not _in_square(lat, h.comult_vec(u))), None)
    counit = next((("counit", i) for i, u in enumerate(gens)
                   if Fraction(h.counit_vec(u)).denominator != 1), None)
    antipode = next((("antipode", i) for i, u in enumerate(gens)
                     if not lat.contains(h.antipode.apply(u))), None)
    return HopfOrderReport(contains_unit, mult is None, comult is None, counit is None,
                           antipode is None, mult or comult or counit or antipode)


def _in_square(lat, image):
    """Whether the tensor with (j, k) -> c entries lies in L (x) L, L of
    full rank.  As a matrix M it is G C G^T, G the generators of L as
    columns, for C = G^-1 M G^-T; it lies in L (x) L exactly when C is
    integral.  Coordinates of the columns of M give G^-1 M, and those of
    its rows the rows of C."""
    n = lat.ambient_dim
    cols = [[QQ.zero] * n for _ in range(n)]
    for (j, k), c in image.items():
        cols[k][j] = c
    half = [lat.coords(col) for col in cols]
    return all(lat.integer_coords(row) is not None for row in zip(*half))


def lattice_integrals(order):
    """Generator of J = (rational integral line) intersected with the order.

    Returns (generator vector, rank-one lattice).  The generator is the
    smallest positive rational multiple of the canonical integral that
    lies in the order, so it is a left integral itself.
    """
    report = order.hopf_order
    if not report.is_hopf_order:
        raise PreconditionError(f"integral lattice needs a Hopf order; failing flag {report.witness}")
    h = order.hopf
    integral = hopf_mod.left_integrals(h).basis[0]
    # a Hopf order has full rank and the integral is nonzero, so some
    # coordinate is; over the nonzero coordinates n/d in lowest terms, the
    # least s > 0 with every s.n/d an integer is lcm(d) / gcd(n)
    coords = [x for x in order.lattice.coords(integral) if x]
    scale = Fraction(math.lcm(*(x.denominator for x in coords)),
                     math.gcd(*(x.numerator for x in coords)))
    generator = tuple(QQ.mul(scale, v) for v in integral)
    return generator, IntegerLattice.from_generators(h.dim, [generator])


@record
class TameLatticeReport:
    fixed_rank: int
    fixed_is_base: bool
    rank_equal: bool
    faithful: bool
    invariant_factors: tuple  # nontrivial factors of S^A / J.S
    quotient_free_rank: int
    tame: bool
    obstructed_primes: tuple
    integral_generator: tuple
    rational_tame: bool | None

    lazy_fields = ("rational_tame",)


def _prime_factors(n):
    out = []
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def tame_check_integral(order, module):
    """Invariant factors of S^A / J.S and the tame verdict over Z.

    Preconditions: the order is a Hopf order acting integrally on the
    lattice.  The quotient is computed by expressing the image lattice
    in coordinates of the fixed lattice and taking Smith invariant
    factors; trailing unit factors are dropped from the report.  The
    verdict is tame exactly when the quotient is trivial and the
    hypotheses (fixed lattice = Z.1, rank equality, faithfulness) hold.
    Primes dividing any factor are reported as the local obstructions.
    With an `algebra`, `rational_tame` is the field-case tame verdict of
    the same action over Q, read from its four facts cheapest first on
    the field's first read; the module-algebra law is decided here.
    """
    h = order.hopf
    lat = module.lattice
    if lat.rank != lat.ambient_dim:
        raise PreconditionError("integral tameness needs a full-rank module lattice")
    generator, _ = lattice_integrals(order)

    # the order must act integrally on S
    order_gens = order.lattice.generators()
    lat_gens = lat.generators()
    integer_actions = []
    for u in order_gens:
        mat = module.action_of(u)
        cols = [lat.integer_coords(mat.apply(gen)) for gen in lat_gens]
        if None in cols:
            raise PreconditionError(
                "the order does not act integrally on the lattice "
                "(it is not inside the associated order)"
            )
        integer_actions.append(Matrix.from_cols(ZZ, cols, lat.rank))

    # fixed lattice S^A as the saturated integer kernel
    # counits are integral: `lattice_integrals` has required the Hopf-order flags
    blocks = [mat - Matrix.identity(ZZ, lat.rank).scale(int(h.counit_vec(u)))
              for u, mat in zip(order_gens, integer_actions)]
    fixed_basis = linalg.integer_kernel_basis(linalg.stack(blocks))
    fixed_lattice = IntegerLattice.from_generators(lat.rank, fixed_basis)

    # image lattice J.S in S-coordinates
    lam = module.action_of(generator)
    image_cols = [tuple(int(x) for x in lat.coords(lam.apply(gen))) for gen in lat_gens]
    # inside S^A, as the generator of J is a left integral: a (J s) = counit(a) J s
    image_lattice = IntegerLattice.from_generators(lat.rank, image_cols)

    # quotient S^A / J.S through Smith normal form
    factors = ()
    free_rank = fixed_lattice.rank - image_lattice.rank
    if image_lattice.rank:
        cols = [tuple(int(x) for x in fixed_lattice.coords(g)) for g in image_lattice.generators()]
        rel = Matrix.from_cols(ZZ, cols, fixed_lattice.rank)
        factors = tuple(f for f in linalg.smith_normal_form(rel) if f not in (0, 1))
    quotient_trivial = not factors and free_rank == 0

    unit_coords = lat.coords(module.unit)
    fixed_is_base = unit_coords is not None and fixed_lattice == IntegerLattice.from_generators(
        lat.rank, [unit_coords])
    rank_equal = order.rank == lat.rank
    action = [m.cols for m in module.action]
    n = lat.ambient_dim
    faithful = linalg.rank(hopf_mod.representation_map(QQ, action, n)) == h.dim

    tame = quotient_trivial and fixed_is_base and rank_equal and faithful
    primes = sorted({p for f in factors for p in _prime_factors(f)})

    rational_tame = None
    if (alg := module.algebra) is not None:
        # action entries (a, v, u, c): e_a . e_v contains c e_u
        entries = [(a, v, u, c) for a, block in enumerate(action)
                   for v, col in enumerate(block) for u, c in col]
        ma = actions_mod.ModuleAlgebraData(h, alg, hopf_mod.sparse_tensor(
            QQ, (h.dim, alg.dim, alg.dim), entries, 2))
        # the load decided the module law on Q^n, which an algebra of another dimension fails
        (actions_mod._verify_module_algebra_law if alg.dim == n
         else actions_mod.verify_module_algebra)(ma)
        rational_tame = lazy(lambda: all(actions_mod._tame_facts(ma, faithful)))

    return TameLatticeReport(
        fixed_rank=fixed_lattice.rank,
        fixed_is_base=fixed_is_base,
        rank_equal=rank_equal,
        faithful=faithful,
        invariant_factors=factors,
        quotient_free_rank=free_rank,
        tame=tame,
        obstructed_primes=tuple(primes),
        integral_generator=generator,
        rational_tame=rational_tame,
    )


@record
class FreeGeneratorResult:
    generator: tuple | None
    certificate: Matrix | None
    determinant: int | None
    tried: int


def free_rank_one_generator(order, module, tame, candidates):
    """First candidate z with A . z = S, certified by a unimodular matrix.

    `tame` is the `tame_check_integral` report of the same order and
    module, which the caller holds already.  Candidate-list driven:
    absence among the candidates is reported as inconclusive (generator
    None), never as a negative theorem.
    """
    if not tame.tame:
        raise PreconditionError("freeness certification applies to tame extensions only")
    lat = module.lattice
    for count, z in enumerate(candidates, start=1):
        z = tuple(QQ.normalize(x) for x in z)
        cols = [lat.integer_coords(module.action_of(u).apply(z)) for u in order.lattice.generators()]
        if None in cols or len(cols) != lat.rank:
            continue
        cert = Matrix.from_cols(ZZ, cols, lat.rank)
        d = linalg.det(cert)
        if abs(d) == 1:
            return FreeGeneratorResult(z, cert, d, count)
    return FreeGeneratorResult(None, None, None, len(list(candidates)))
