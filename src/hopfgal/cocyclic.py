"""Comodules, the cyclic operator and the shift checks.

Conventions fixed here once:

* ComoduleData stores a right coaction, rho(e_m) = sum c e_m' (x) e_h,
  as coaction[m], the canonical tuple of its (m', h, c) triples: the
  layout of Delta in :mod:`hopf`, so the regular comodule is the
  comultiplication itself.  Actions act[h][m] hold (m', c) pairs, as in
  :mod:`actions`.
* A right comodule is converted to a left one through the inverse
  antipode: the left legs of m are alpha^{-1}(m_(1)) (x) m_(0).  The
  anti-Yetter-Drinfeld and stability formulas are stated left-left and
  evaluated through that dictionary.
* Tensor powers of comodules multiply their legs in H.
* "Level n" of the cyclic family carries n + 1 algebra slots plus the
  coefficient module, with lexicographic flattening, left slot slowest.

The cyclic operator t_n rotates the final slot to the front through its
coaction legs, acting on the coefficients by the H-leg.  It fails
cyclicity on the full space; t restricted to the cotensor subspace with
stable anti-Yetter-Drinfeld coefficients satisfies t^(n+1) = id, and
that restriction is what the identity checks verify.

On a validated S and M the simplicial and rotation identities of the
faces and degeneracies are a lemma (see `check_cyclic_identities`), so
no face or degeneracy is built; and t^(n+1) has a closed form on
X (x) M, X = S^(x)(n+1): so the level-n check builds the cotensor basis
and t_n once each.  `cyclic_levels` is the one loop over the levels: it
bounds them all before any work, then checks them lazily, each X one
`tensor_comodule` from the one below it, and holds one X at a time.  The
cotensor system leaves out one row block that the counit law makes
redundant, and is eliminated sparsely (`linalg.kernel_map`).

The four functions that need :mod:`actions` (the homology of a
comodule, the bar shift, gamma of a comodule algebra and the T-shift)
import it themselves, so a `cyclic` command never loads it.  Module laws
are decided by `hopf.verify_module_over_algebra`, comodule laws by the
coalgebra-law predicates of :mod:`hopf` and the comodule-algebra law by
`hopf.verify_coaction_algebra`; each failed law raises AxiomError.
"""

from __future__ import annotations

import functools
import itertools

from . import hopf as hopf_mod
from . import linalg
from .errors import (
    DEFAULT_MAX_DIM,
    AxiomError,
    PreconditionError,
    ResourceBoundError,
    ShapeError,
)
from .linalg import ColumnMap, sparse_entries as _sparse  # noqa: F401 (read by perfbench/tests)
from .reporting import record


# ---------------------------------------------------------------------------
# comodules


@record
class ComoduleData:
    """Right H-comodule; coaction[m] holds the nonzero (m', h, c) triples of rho(e_m).

    A plain record: no law is decided here.  Data read from outside
    enters through :func:`comodule_from_triples`, which decides the
    counit and coassociativity laws.  The derived comodules (regular,
    tensor products, the dictionary image of a module, the cofree
    relative modules) are built as records, since they are
    comodules by construction: a tensor product of comodules is a
    comodule, and so is the dual coaction of a module.
    """

    hopf: hopf_mod.HopfAlgebraData
    dim: int
    coaction: tuple

    @property
    def domain(self):
        return self.hopf.domain


def _comodule(hopf, dim, triples):
    """The comodule record of (m, m', h, c) entries, in canonical form."""
    return ComoduleData(
        hopf, dim, hopf_mod.sparse_tensor(hopf.domain, (dim, dim, hopf.dim), triples, 1)
    )


def comodule_from_triples(hopf, dim, triples):
    """Validated comodule from coaction entries (m, m', h, c).

    Decides the counit law on every m, then coassociativity on every m,
    by the predicates that decide them for Delta (`hopf.verify_hopf`),
    and raises AxiomError at the first failing m.
    """
    c = _comodule(hopf, dim, triples)
    for name, law, tensor in (
        ("comodule-counit", hopf_mod._right_counital_at, hopf.counit),
        ("comodule-coassociativity", hopf_mod._coassociative_at, hopf.comult),
    ):
        holds = functools.partial(law, hopf.domain, c.coaction, tensor)
        witness = hopf_mod._first_failing_row(None, holds, dim)
        if witness is not None:
            raise AxiomError(name, witness)
    return c


def regular_comodule(hopf):
    """H coacting on itself by the comultiplication."""
    return ComoduleData(hopf, hopf.dim, hopf.comult)


def module_to_comodule(h, action):
    """Right dual(H)-comodule from a verified H-action: rho(m) = sum (e_a . m) (x) e_a*,
    read off the action by `hopf.dual_coaction`, which keeps it canonical."""
    linalg.require_field(h.domain, "module/comodule dictionary")
    dim = len(action[0]) if action else 0
    return ComoduleData(hopf_mod.dual(h), dim, hopf_mod.dual_coaction(action, dim))


def comodule_to_module(c):
    """Action tensor of dual(hopf) on the comodule: f . m = f(m_(1)) m_(0)."""
    action = hopf_mod.sparse_tensor(c.domain, (c.hopf.dim, c.dim, c.dim), (
        (a, m, m2, coeff) for m, rho in enumerate(c.coaction) for m2, a, coeff in rho
    ), 2)
    return hopf_mod.dual(c.hopf), action


def coinvariants(c):
    """Canonical echelon basis of {m : rho(m) = m (x) 1}: the fixed points
    of the dual(H)-action the dictionary induces (`comodule_to_module`),
    as f . m = f(m_(1)) m_(0) is f(1) m for every f exactly when
    rho(m) = m (x) 1, and f(1) is the counit of dual(H)."""
    linalg.require_field(c.domain, "coinvariants")
    return hopf_mod.fixed_points(*comodule_to_module(c))


@record
class ComoduleHomology:
    dim_coinvariants: int
    dim_image: int
    dim_h0: int


def hopfological_homology_comodule(c):
    """dim M^coH / (integral of the dual acting on M).

    M^coH is the fixed space of the dual(H)-action the dictionary induces
    (`comodule_to_module`), so this is the homology of that module.
    """
    from . import actions

    hom = actions.hopfological_homology_module(*comodule_to_module(c))
    return ComoduleHomology(hom.dim_fixed, hom.dim_image, hom.dim_h0)


# ---------------------------------------------------------------------------
# anti-Yetter-Drinfeld data


@record
class AydModuleData:
    """A module and a comodule over one H; AYD laws checked by the ops.

    The AYD verdict is decided on first read of ``ayd`` and kept, as a
    Hopf algebra keeps its integrals: `stability_check` and a command
    that reports both read it, so one module is decided once.
    """

    comodule: ComoduleData
    action: tuple  # action[h][m] = (m', c) pairs, over the same H

    def __post_init__(self):
        if len(self.action) != self.comodule.hopf.dim or any(
            len(block) != self.comodule.dim for block in self.action
        ):
            raise ShapeError("action tensor shape mismatch")
        hopf_mod.verify_module_over_algebra(self.comodule.hopf.algebra, self.action)

    @property
    def hopf(self):
        return self.comodule.hopf

    @property
    def dim(self):
        return self.comodule.dim

    @property
    def domain(self):
        return self.comodule.domain

    @functools.cached_property
    def ayd(self):
        """:func:`ayd_check` of the module, decided on first read."""
        return ayd_check(self)

    @functools.cached_property
    def left_legs(self):
        """Left-coaction legs (h, m0, coeff) of each basis vector, read
        from the right coaction through the inverse antipode."""
        mul, inv_cols = self.domain.mul, linalg.invert(self.hopf.antipode).cols
        return [
            [(hh, m0, mul(coeff, w)) for m0, h1, coeff in self.comodule.coaction[m]
             for hh, w in inv_cols[h1]]
            for m in range(self.dim)
        ]


def ayd_check(m):
    """Left-left anti-Yetter-Drinfeld compatibility with witness.

    Verifies rho(h . v) = h_(1) v_(-1) alpha(h_(3)) (x) h_(2) . v_(0)
    on every basis pair, in the left coordinates obtained from the
    stored right coaction through the inverse antipode.
    """
    h = m.hopf
    dom = m.domain
    # no bijectivity check: the antipode of a finite-dimensional Hopf
    # algebra is bijective (Larson-Sweedler), so `left_legs` inverts it
    alpha = h.antipode.cols
    legs = m.left_legs
    n = h.dim

    # Delta^2 legs of each basis element of H
    delta2 = []
    for a in range(n):
        terms = []
        for j, k, c in h.comult[a]:
            for a1, a2, c2 in h.comult[j]:
                terms.append((a1, a2, k, dom.mul(c, c2)))
        delta2.append(terms)

    mul, mult = dom.mul, h.algebra.mult

    def rhs_terms(a, v):
        for a1, a2, a3, c in delta2[a]:
            for hh, m0, w in legs[v]:
                # h_(1) v_(-1) alpha(h_(3)) in H
                hvec = linalg.sparse_sum(dom, (
                    (k, mul(w1, mul(w2, w3)))
                    for t, w1 in mult[a1][hh] for s, w2 in alpha[a3] for k, w3 in mult[t][s]
                ))
                cw = mul(c, w)
                for hi, hv in hvec.items():
                    for mi, mv in m.action[a2][m0]:
                        yield (hi, mi), mul(cw, mul(hv, mv))

    for a in range(n):
        for v in range(m.dim):
            lhs = linalg.sparse_sum(dom, (
                ((hh, m0), mul(c, w)) for m2, c in m.action[a][v] for hh, m0, w in legs[m2]
            ))
            if lhs != linalg.sparse_sum(dom, rhs_terms(a, v)):
                return False, (a, v)
    return True, None


def stability_check(m):
    """Stability v_(-1) . v_(0) = v for all basis vectors, with witness;
    reads the AYD verdict kept on m."""
    dom = m.domain
    ok, witness = m.ayd
    if not ok:
        raise PreconditionError(f"stability needs the AYD law; it fails at {witness}")
    for v in range(m.dim):
        out = [dom.zero] * m.dim
        for hh, m0, w in m.left_legs[v]:
            for mi, mv in m.action[hh][m0]:
                out[mi] = dom.add(out[mi], dom.mul(w, mv))
        if out != list(linalg.unit_vec(dom, m.dim, v)):
            return False, (v,)
    return True, None


# ---------------------------------------------------------------------------
# comodule algebras and cotensor products


@record
class ComoduleAlgebraData:
    """Algebra S with a right coaction that is an algebra map.

    A record: :func:`comodule_algebra` decides the law of data from
    outside, and the dictionary image of a module algebra takes it from
    the module-algebra law.
    """

    algebra: hopf_mod.AlgebraData
    comodule: ComoduleData

    @property
    def hopf(self):
        return self.comodule.hopf

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def domain(self):
        return self.algebra.domain


def comodule_algebra(hopf, algebra, triples):
    """Validated comodule algebra from coaction entries (s, s', h, c).

    Decides the comodule laws, then the comodule-algebra law by
    `hopf.verify_coaction_algebra`, the decider of the module-algebra law
    too, and raises AxiomError at the first failure.
    """
    c = comodule_from_triples(hopf, algebra.dim, triples)
    hopf_mod.verify_coaction_algebra(
        "comodule-algebra", algebra, c.coaction, hopf.algebra.unit, hopf.algebra.mult)
    return ComoduleAlgebraData(algebra, c)


def module_algebra_to_comodule_algebra(d):
    """Comodule algebra over dual(H) from an H-module algebra (flagged by
    callers), built without a check: the module-algebra law implies it."""
    return ComoduleAlgebraData(d.algebra, module_to_comodule(d.hopf, d.action))


def tensor_comodule(x, c):
    """X (x) C as a right comodule; legs multiply in H.

    The coaction is built in its canonical form, one basis vector at a
    time: the legs of x_i (x) c_s are summed by (m', h) and sorted.  The
    coefficients are products of the canonical coefficients of x, c and
    H, so none needs the entry checks of `hopf.sparse_tensor`.  A dict
    loop, not `linalg.sparse_sum`, takes c1 c2 once per pair of legs.
    """
    dom, dc = x.domain, c.dim
    mul, add = dom.mul, dom.add
    h_mult = x.hopf.algebra.mult
    coaction = []
    for legs in x.coaction:
        for s in range(dc):
            out = {}
            for x0, h1, c1 in legs:
                row, at = h_mult[h1], x0 * dc
                for s0, h2, c2 in c.coaction[s]:
                    m2, c12 = at + s0, mul(c1, c2)
                    for hh, w in row[h2]:
                        key, w = (m2, hh), mul(c12, w)
                        out[key] = add(out[key], w) if key in out else w
            coaction.append(tuple(sorted((m2, hh, w) for (m2, hh), w in out.items() if w)))
    return ComoduleData(x.hopf, x.dim * dc, tuple(coaction))


def cotensor(x, m):
    """Canonical basis of the cotensor equalizer inside X (x) M, as the
    columns of a ColumnMap.

    The equalizer is the kernel of Phi = (rho_X (x) id_M) - (id_X (x)
    rho_M), both sides swapped to the common target X (x) M (x) H.  By
    the counit law of both comodules, (id (x) id (x) counit) Phi =
    id - id = 0: for each h* with counit(e_h*) != 0, the row block of h*
    is -counit(e_h*)^-1 times the sum of counit(e_h) times the block of
    h over h != h*.  So the system leaves out the block of the first
    such h* (there is one, as counit(1) = 1) and keeps (dim H - 1)/dim H
    of its rows, with the same kernel and therefore the same canonical
    basis.  It is built column by column, rows renumbered past h*: column
    (x_i, m_i) holds the rows of x_i's legs, placed once per x_i, plus
    those of m_i's, placed once per m_i, which meet them in rows (x_i, m_i, h).
    """
    if x.hopf != m.hopf:
        raise ShapeError("cotensor needs comodules over one Hopf algebra")
    dom = x.domain
    dh, dm = x.hopf.dim, m.dim
    skip = next(h for h, e in enumerate(x.hopf.counit) if e)
    width = dh - 1
    block = [h - (h > skip) for h in range(dh)]  # the row offset of h in a block
    neg, add = dom.neg, dom.add
    m_rows = [[(m0 * width + block[h], neg(c)) for m0, h, c in legs if h != skip] for legs in m.coaction]
    cols = []
    for xi, legs in enumerate(x.coaction):
        x_rows = [(x0 * dm * width + block[h], c) for x0, h, c in legs if h != skip]
        at = xi * dm * width
        for mi, rows in enumerate(m_rows):
            col = {r + mi * width: c for r, c in x_rows}
            for r, c in rows:
                r += at
                c = add(col.pop(r), c) if r in col else c
                if c:
                    col[r] = c
            cols.append(tuple(sorted(col.items())))
    return linalg.kernel_map(ColumnMap(dom, x.dim * dm * width, cols))


# ---------------------------------------------------------------------------
# the cyclic-type operators


def cyclic_matrix(S, M, n):
    """t_n: rotate the last slot to the front through its coaction legs.

    Column (rest, s, m), rest the slots before the last one, is the
    image of slot value s and coefficient m moved by rest * dim M rows.
    """
    dom = S.domain
    ds, dm = S.dim, M.dim
    step = ds ** n * dm  # rows between consecutive values of the front slot
    mul, add = dom.mul, dom.add
    # placed[s * dm + m]: the image of slot value s and coefficient m with
    # rest = 0, as ascending (row, coeff) pairs, summed in a dict loop by
    # row s0 * step + m2, which sorts as (s0, m2) since m2 < dm <= step
    placed = []
    for legs in S.comodule.coaction:
        for m in range(dm):
            out = {}
            for s0, h, c in legs:
                at = s0 * step
                for m2, w in M.action[h][m]:
                    row, w = at + m2, mul(c, w)
                    out[row] = add(out[row], w) if row in out else w
            placed.append(sorted((row, w) for row, w in out.items() if w))
    return ColumnMap(dom, ds * step, [
        tuple((i + shift, c) for i, c in spread)
        for shift in range(0, step, dm) for spread in placed
    ])


def cyclic_power(X, M, col):
    """t_n^(n+1) of a column of X (x) M, by its closed form
    (id (x) act)(rho_X (x) id).

    X is S^(x)(n+1), whose legs multiply in slot order.
    The n + 1 rotations bring slots n, n - 1, .., 0 to the front in turn,
    which restores their order, and act on the coefficient by their
    legs: x_0(1) . (x_1(1) . (.. x_n(1) . m)), which is
    (x_0(1) x_1(1) .. x_n(1)) . m by the module law of M, and that
    product is the leg of x in X.  A dict loop, not `linalg.sparse_sum`,
    splits each index once and takes c w once per leg.
    """
    dom, dm = X.domain, M.dim
    mul, add = dom.mul, dom.add
    act = M.action
    out = {}
    for i, c in col:
        xi, mi = divmod(i, dm)
        for x0, h, w in X.coaction[xi]:
            at, cw = x0 * dm, mul(c, w)
            for m2, v in act[h][mi]:
                row, v = at + m2, mul(cw, v)
                out[row] = add(out[row], v) if row in out else v
    return tuple(sorted((row, v) for row, v in out.items() if v))


@record
class CyclicIdentityReport:
    level: int
    dim: int
    cotensor_dim: int
    simplicial_ok: bool
    simplicial_witness: tuple | None
    rotation_ok: bool  # d_n t_n = t_{n-1} d_{n-1}
    cyclicity_ok: bool  # t^(n+1) = id on the cotensor
    cyclicity_witness: tuple | None
    t_preserves_cotensor: bool


def check_cyclic_identities(S, M, n, X):
    """Three-part verdict at level n, with X = S^(x)(n+1) the tensor power
    of the comodule of S (`cyclic_levels` builds it and bounds the level).

    (a) the presimplicial and degeneracy identities on the full space,
    (b) the rotation relation d_n t_n = t_{n-1} d_{n-1} on the full
    space, and (c) t_n^(n+1) = id on the cotensor subspace.  (c) is a
    theorem only for stable anti-Yetter-Drinfeld coefficients; callers
    check those once (``M.ayd``, `stability_check`) and downgrade a
    (c) failure to informational when they do not hold.

    (a) and (b) hold on every S and M that got here, so they are
    reported without a witness.  The faces d_i with i < n are
    I (x) m (x) I and the degeneracies I (x) eta (x) I, for the
    multiplication m and unit eta of S.  On disjoint slots two such
    operators commute by the interchange law (A (x) I)(I (x) B) =
    A (x) B; on adjacent slots their identities are the associativity
    and unit of S.  t_n moves slots 0..n-1 without acting on them, so
    the last face d_n = d_0 t_n acts on slot 0, slot n and the
    coefficients only, and d_i d_n (i < n - 1) and d_(n+1) s_j (j < n)
    follow the same way.  The pairs left, d_(n-1) d_n, d_(n+1) s_n and
    the rotation relation, follow from the comodule-algebra law of S
    (rho(s t) = rho(s) rho(t), rho(1) = 1 (x) 1) and the module law of
    M.  Each of these laws is decided where its data enters or holds by
    construction.

    (c) is decided from the closed form of t_n^(n+1) (`cyclic_power`;
    Hajac, Khalkhali, Rangipour and Sommerhaeuser, "Stable
    anti-Yetter-Drinfeld modules", C. R. Acad. Sci. Paris 338, 2004),
    applied to the columns of the cotensor's echelon basis B in turn;
    the witness is the first column it moves.
    """
    if S.hopf != M.hopf:
        raise ShapeError("S and M must live over one Hopf algebra")
    dom, dim = S.domain, X.dim * M.dim
    B = cotensor(X, M.comodule)
    cyc_witness = next(
        ((k,) for k, col in enumerate(B.cols) if cyclic_power(X, M, col) != col), None)
    tB = cyclic_matrix(S, M, n) @ B
    # B's column k is 1 at its pivot, where the other columns are 0, so v lies
    # in the span exactly when v = B (v read at the pivots)
    at_pivots = [()] * dim
    for k, col in enumerate(B.cols):
        at_pivots[col[0][0]] = ((k, dom.one),)
    return CyclicIdentityReport(
        level=n,
        dim=dim,
        cotensor_dim=B.ncols,
        simplicial_ok=True,
        simplicial_witness=None,
        rotation_ok=True,
        cyclicity_ok=cyc_witness is None,
        cyclicity_witness=cyc_witness,
        t_preserves_cotensor=B @ (ColumnMap(dom, B.ncols, at_pivots) @ tB) == tB,
    )


def cyclic_levels(S, M, top, max_dim=DEFAULT_MAX_DIM):
    """The `check_cyclic_identities` reports of levels 0..top, read lazily.

    Level n has dimension dim(S)^(n+1) dim(M), and the level-top
    identities reach level top + 1 (the pairs d_(top+1) s_j), so levels
    0..top + 1 are bounded by max_dim here, before any work; so is the
    number of levels, as with a 1-dimensional S every level has the
    dimension of M.  Each level is checked when it is read, its
    X = S^(x)(n+1) one `tensor_comodule` from the X below it, so the
    levels build S^(x)2 .. S^(x)(top+1) once each and hold one at a time.
    """
    for n in range(min(top + 2, max_dim + 1)):
        dim = S.dim ** (n + 1) * M.dim
        if dim > max_dim:
            built_by = f" (the level {top} identities build it)" if n > top else ""
            raise ResourceBoundError(f"level {n} has dimension {dim} > bound {max_dim}{built_by}")
    if top + 1 > max_dim:
        raise ResourceBoundError(f"--levels {top} builds {top + 1} levels > bound {max_dim}")
    powers = itertools.accumulate(itertools.repeat(S.comodule, top), tensor_comodule,
                                  initial=S.comodule)
    return (check_cyclic_identities(S, M, n, X) for n, X in enumerate(powers))


# ---------------------------------------------------------------------------
# shift checks


def _level_dims(top, ds, max_dim, level_name, count_name, series):
    """The dimensions first * ds^n, n = 0..top, of each (name, first, shift)
    series, each bounded by max_dim before it is stored, level by level up
    to the first one past the bound.  With ds = 1 every level has one
    dimension, so more than max_dim levels are refused as well; the
    refusals name a level by level_name and the count by count_name."""
    out = []
    for name, value, shift in series:
        dims = []
        for n in range(min(top + 1, max_dim + 1)):
            if value > max_dim:
                raise ResourceBoundError(
                    f"{level_name} {n + shift} of {name} has dimension {value} > bound {max_dim}"
                )
            dims.append(value)
            value *= ds
        out.append(tuple(dims))
    if top + 1 > max_dim:
        raise ResourceBoundError(f"{count_name} {top} builds {top + 1} levels > bound {max_dim}")
    return out


@record
class BarShiftReport:
    top: int
    dims_module: tuple
    dims_fixed: tuple
    dims_match: bool
    morita_bijective: bool
    dim_module: int
    dim_fixed: int
    iso_bijective: tuple
    differential_compat: tuple


def bar_shift_check(d, module, top, max_dim=DEFAULT_MAX_DIM):
    """Degreewise bar shift B_n(S, M) = B_{n+1}(S, M^H) for n <= top.

    Needs j bijective.  The Morita map S (x) M^H -> M, s (x) v -> s.v,
    is S-linear by M's module law, so its inverse phi is too (Cohen,
    Fischman and Montgomery, "Hopf Galois extensions, smash products,
    and Morita equivalence", J. Algebra 133, 1990).  Against the bar
    differential of B(S, M), faces 1..n of B(S, M^H) are compared (M^H
    carries no S-action, so its top face is not): faces 1..n-1 commute
    with I (x) phi by the interchange law, and the face where the last S
    acts on M becomes, through phi, the face that multiplies into the S
    factor.  So each degree's iso I (x) phi and its compatibility hold
    exactly when the Morita map is bijective, and neither is built.
    """
    from . import actions

    try:
        morita = actions.morita_decomposition(module)
    except PreconditionError as exc:
        raise PreconditionError(
            "bar shift needs the Morita lemma hypothesis: j : S#H -> End(S) bijective"
        ) from exc
    ds = d.algebra.dim
    dm, k = morita.dim_module, morita.dim_fixed
    # dims_f[n] is bar degree n + 1 of B(S, M^H)
    dims_m, dims_f = _level_dims(top, ds, max_dim, "bar degree", "--levels",
                                 (("B(S, M)", dm, 0), ("B(S, M^H)", ds * k, 1)))
    return BarShiftReport(
        top=top,
        dims_module=dims_m,
        dims_fixed=dims_f,
        dims_match=dims_m == dims_f,
        morita_bijective=morita.bijective,
        dim_module=dm,
        dim_fixed=k,
        iso_bijective=(morita.bijective,) * (top + 1),
        differential_compat=(morita.bijective,) * top,
    )


# comodule-side data -----------------------------------------------------


def galois_map_gamma_comodule(S):
    """gamma for a comodule algebra: S (x) S -> S (x) H, s (x) t -> s t^(0) (x) t^(1)."""
    from . import actions

    return actions._gamma_from_legs(S.algebra, S.comodule.coaction, S.hopf.dim)


@record
class RelativeHopfModuleData:
    """Left S-module in the category of right H-comodules.

    A plain record.  Its two constructors derive it from a validated
    comodule algebra S, and S and S (x) V are relative Hopf modules for
    every comodule algebra S, so no law is decided here.
    """

    comod_algebra: ComoduleAlgebraData
    comodule: ComoduleData
    s_action: tuple  # s_action[s][m] image vectors

    @property
    def dim(self):
        return self.comodule.dim

    @property
    def domain(self):
        return self.comod_algebra.domain


def algebra_as_relative_module(S):
    """S over itself: action by multiplication, coaction of the algebra."""
    return RelativeHopfModuleData(S, S.comodule, S.algebra.mult)


def cofree_relative_module(S, extra_dim):
    """S (x) V for a trivial space V; action and coaction on the S factor."""
    dom = S.domain
    dim = S.dim * extra_dim
    action = hopf_mod.sparse_tensor(dom, (S.dim, dim, dim), (
        (s, m, u * extra_dim + m % extra_dim, w)
        for s in range(S.dim) for m in range(dim) for u, w in S.algebra.mult[s][m // extra_dim]
    ), 2)
    comod = _comodule(S.hopf, dim, (
        (m, s0 * extra_dim + m % extra_dim, h, c)
        for m in range(dim) for s0, h, c in S.comodule.coaction[m // extra_dim]
    ))
    return RelativeHopfModuleData(S, comod, action)


@record
class TShiftReport:
    top: int
    gamma_rank: int
    gamma_bijective: bool
    coinvariants_base: bool
    evaluation_bijective: bool
    dim_module: int
    dim_coinvariants: int
    dims_module: tuple
    dims_coinvariants: tuple


def t_shift_check(m, top, max_dim=DEFAULT_MAX_DIM):
    """Fundamental-theorem shift for T-levels of a relative Hopf module.

    Needs gamma bijective for S over R = S^coH; verifies the evaluation
    S (x) M^co -> M is bijective and reports the level dimensions of
    T(S, M) and of T(S, M^co) shifted by one, each bounded by max_dim
    before it is stored; more than max_dim levels are refused.
    They agree exactly when dim M = dim S dim M^co, which a bijective
    evaluation implies.
    """
    from . import actions

    S = m.comod_algebra
    gamma = galois_map_gamma_comodule(S)
    if not gamma.bijective:
        raise PreconditionError(
            f"t-shift needs the Galois map gamma bijective; rank {gamma.rank} "
            f"of {gamma.matrix.nrows}"
        )
    dom = S.domain
    base = linalg.echelon_basis(dom, [S.algebra.unit])
    s_coinv = coinvariants(S.comodule)
    coinv_base = s_coinv == base

    mco = coinvariants(m.comodule)
    ev_bij = actions.evaluation_map(dom, m.s_action, m.dim, mco).bijective

    ds, dc = S.dim, len(mco)
    # dims_c[n] is T-level n + 1 of T(S, M^coH)
    dims_m, dims_c = _level_dims(top, ds, max_dim, "T-level", "top",
                                 (("T(S, M)", ds * m.dim, 0), ("T(S, M^coH)", ds * ds * dc, 1)))
    return TShiftReport(
        top=top,
        gamma_rank=gamma.rank,
        gamma_bijective=gamma.bijective,
        coinvariants_base=coinv_base,
        evaluation_bijective=ev_bij,
        dim_module=m.dim,
        dim_coinvariants=len(mco),
        dims_module=dims_m,
        dims_coinvariants=dims_c,
    )
