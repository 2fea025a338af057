"""Module algebras, smash products, Galois maps and tameness over fields.

The pair (H, S) is stored as an action tensor act[h][s] holding the
nonzero (t, c) pairs of e_h . e_s, sorted by t, in the canonical form
:func:`hopf.sparse_tensor` builds; modules over S#H and S use the same
layout.  Each block act[h] is read, without a copy, as the columns of
a `linalg.ColumnMap` (`hopf.action_maps`, :func:`acting_map`).  Every
linear map here is a ColumnMap, the Galois maps, the Morita evaluation
map and the total integral included; `linalg` eliminates it by its
sparse rows.  S is an H-module algebra exactly when sigma(t) = sum_a
(e_a . t) (x) e_a*, read off the action by `hopf.dual_coaction`, makes it
a dual(H)-comodule algebra (Montgomery, Hopf Algebras and Their Actions
on Rings, CBMS 82, 1993, 1.6 and 4.1): :func:`verify_module_algebra`
decides and refuses that law by `hopf.verify_coaction_algebra`, and
gamma is built from the legs of sigma.
"""

from __future__ import annotations

import functools

from . import hopf as hopf_mod
from . import linalg
from .errors import PreconditionError, ShapeError
from .hopf import AlgebraData, HopfAlgebraData, action_maps, verify_module_over_algebra
from .linalg import ColumnMap, sparse_entries as _sparse  # noqa: F401 (read by perfbench/tests)
from .reporting import record


@record
class ModuleAlgebraData:
    """An algebra S with an H-action candidate; laws checked separately."""

    hopf: HopfAlgebraData
    algebra: AlgebraData
    action: tuple  # action[h][s] = (t, c) pairs of e_h . e_s

    def __post_init__(self):
        if self.hopf.domain != self.algebra.domain:
            raise ShapeError("hopf and algebra domains differ")

    @property
    def domain(self):
        return self.hopf.domain


def acting_map(domain, action, dim, hvec):
    """ColumnMap of v -> hvec . v for a general element hvec of the acting algebra."""
    return ColumnMap.combination(domain, hvec, action_maps(domain, action, dim), dim, dim)


def module_algebra(hopf, algebra, action_triples):
    """Validated module algebra from sparse action entries (h, s, t, c)."""
    action = hopf_mod.sparse_tensor(
        hopf.domain, (hopf.dim, algebra.dim, algebra.dim), action_triples, 2
    )
    data = ModuleAlgebraData(hopf, algebra, action)
    verify_module_algebra(data)
    return data


def verify_module_algebra(d):
    """Decides the module law, then the module-algebra law, and raises
    AxiomError at the first failure.

    h . 1 = counit(h) 1 says sigma(1) = 1 (x) counit, the unit of dual(H),
    and h . (s t) = (h_1 . s)(h_2 . t) says sigma(s t) = sigma(s) sigma(t):
    the comodule-algebra law of sigma, which `hopf.verify_coaction_algebra`
    decides for `cocyclic.comodule_algebra` too, refused here as
    "module-algebra-unit" at () or "module-algebra-mult" at (s, t).
    """
    verify_module_over_algebra(d.hopf.algebra, d.action)
    _verify_module_algebra_law(d)


def _verify_module_algebra_law(d):
    """The module-algebra law alone, for an action whose module law holds."""
    hopf_mod.verify_coaction_algebra("module-algebra", d.algebra, hopf_mod.dual_coaction(
        d.action, d.algebra.dim), d.hopf.counit, d.hopf.dual_product)


# ---------------------------------------------------------------------------
# faithfulness


def is_faithful(d):
    """Kernel of H -> End(S) is zero."""
    linalg.require_field(d.domain, "faithfulness")
    return linalg.rank(hopf_mod.representation_map(d.domain, d.action, d.algebra.dim)) == d.hopf.dim


# ---------------------------------------------------------------------------
# smash product


@record
class SmashProductData:
    algebra: AlgebraData
    base: ModuleAlgebraData

    @property
    def dim(self):
        return self.algebra.dim

    def index(self, s, a):
        return s * self.base.hopf.dim + a


def smash(d):
    """Smash product S # H with (s#h)(t#k) = s(h1.t) # h2 k.

    Basis index s * dim(H) + h.  Built without a check: S # H is
    associative with unit 1 # 1 as S is an H-module algebra.
    """
    dom = d.domain
    mul = dom.mul
    h, s_alg = d.hopf, d.algebra
    ds, dh = s_alg.dim, h.dim
    dim = ds * dh
    entries = (
        (i * dh + a, j * dh + b, u * dh + v, mul(mul(w, w2), mul(w3, w4)))
        for i in range(ds)
        for a in range(dh)
        for j in range(ds)
        for b in range(dh)
        for c1, c2, w in h.comult[a]
        for t, w2 in d.action[c1][j]
        for u, w3 in s_alg.mult[i][t]
        for v, w4 in h.algebra.mult[c2][b]
    )
    mult = hopf_mod.sparse_tensor(dom, (dim, dim, dim), entries, 2)
    unit = tuple(mul(a, b) for a in s_alg.unit for b in h.algebra.unit)
    labels = tuple(
        f"{s_alg.labels[i]}#{h.labels[a]}" for i in range(ds) for a in range(dh)
    )
    return SmashProductData(AlgebraData(dom, dim, labels, mult, unit), d)


# ---------------------------------------------------------------------------
# Galois maps


@record
class GaloisMap:
    matrix: ColumnMap
    rank: int
    bijective: bool

    @classmethod
    def of(cls, matrix):
        """The map with its rank; bijective means square of full rank."""
        r = linalg.rank(matrix)
        return cls(matrix, r, matrix.nrows == matrix.ncols and r == matrix.nrows)


def galois_map_j(d):
    """The map j : S#H -> End(S), j(s (x) h)(t) = s (h . t): the
    representation map of S as an S#H-module (`algebra_smash_module`).

    Rows are indexed by End(S) basis (u, v) = u*dim(S)+v, columns by
    s*dim(H)+h; bijectivity is full rank on a square matrix.
    """
    linalg.require_field(d.domain, "Galois map")
    action = _smash_action_on_algebra(d)
    return GaloisMap.of(hopf_mod.representation_map(d.domain, action, d.algebra.dim))


def galois_map_gamma(d):
    """The map gamma : S (x) S -> S (x) H*, s (x) t -> (s (x) 1) sigma(t).

    sigma is `hopf.dual_coaction` of the action, so H* is not built.
    Rows are (u, a) = u*dim(H)+a, columns (i, j) = i*dim(S)+j.
    """
    linalg.require_field(d.domain, "Galois map")
    return _gamma_from_legs(
        d.algebra, hopf_mod.dual_coaction(d.action, d.algebra.dim), d.hopf.dim)


def _gamma_from_legs(alg, legs, dh):
    """gamma : S (x) S -> S (x) H, s (x) t -> s t_(0) (x) t_(1), for a right
    coaction whose legs[j] holds the (t, h, c) triples of rho(e_j), of a
    comodule algebra or read off an action.  Rows are (u, h) = u*dh+h,
    columns (i, j) = i*dim(S)+j."""
    dom, ds = alg.domain, alg.dim
    mul = dom.mul
    terms = (
        ((u * dh + h, i * ds + j), mul(c, w))
        for i in range(ds)
        for j in range(ds)
        for t, h, c in legs[j]
        for u, w in alg.mult[i][t]
    )
    return GaloisMap.of(ColumnMap.from_entries(dom, ds * dh, ds * ds, terms))


def gamma_is_algebra_map(d):
    """Whether gamma is multiplicative into S (x) H* (componentwise product).

    gamma's columns are a coaction of S (x) S for the comodule-algebra
    product predicate, its target read in (S (x) S) (x) H* through the
    injective algebra map u (x) f -> (1 (x) u) (x) f.  Only meaningful
    when gamma is bijective; raises otherwise.
    """
    gamma = galois_map_gamma(d)
    if not gamma.bijective:
        raise PreconditionError("gamma is not bijective, the algebra-map lemma does not apply")
    dom, alg = d.domain, d.algebra
    ds, dh, mul, one = alg.dim, d.hopf.dim, dom.mul, dom.one
    pairs = range(ds * ds)
    # S (x) S with the componentwise product, e_i (x) e_j at i * ds + j
    square = [[[(s * ds + t, c) for (s, t), c in hopf_mod._square_sum(
        dom, alg.mult, alg.mult, ((x // ds, x % ds, one),), ((y // ds, y % ds, one),)).items()]
        for y in pairs] for x in pairs]
    unit = [(p, c) for p, c in enumerate(alg.unit) if c]
    legs = [[(p * ds + r // dh, r % dh, mul(c, v)) for r, v in col for p, c in unit]
            for col in gamma.matrix.cols]
    holds = functools.partial(
        hopf_mod._coaction_multiplicative, dom, square, legs, d.hopf.dual_product)
    return all(holds(x, y) for x in pairs for y in pairs)


# ---------------------------------------------------------------------------
# classification


@record
class ExtensionReport:
    invariants_basis: tuple
    invariants_are_base: bool
    faithful: bool
    rank_equal: bool
    integral_image_basis: tuple
    integral_surjective: bool
    j_rank: int
    j_bijective: bool
    gamma_rank: int
    gamma_bijective: bool
    galois_form: str
    is_extension: bool
    tame: bool
    hopf_galois: bool
    hopf_local: bool
    hopf_cocommutative: bool
    algebra_commutative: bool
    hopf_semisimple: bool
    equivalence_applies: bool
    classification: str


def classify_extension(d):
    """Full tame / Hopf-Galois report for a field-base module algebra.

    Tame needs S^H = R.1, rank equality, faithfulness and I.S = R.1.
    Hopf-Galois means j bijective in the original (commutative S,
    cocommutative H) form and gamma bijective otherwise; both verdicts
    are always recorded.  When H is local cocommutative with matching
    ranks the tame and Hopf-Galois verdicts are equivalent by the
    theory, and the report flags that the equivalence applies.
    """
    linalg.require_field(d.domain, "extension classification")
    homology = hopfological_homology_module(d.hopf, d.action)
    facts = tuple(_tame_facts(d, is_faithful(d), homology))
    rank_equal, faithful, is_extension, integral_surjective = facts
    j = galois_map_j(d)
    gamma = galois_map_gamma(d)
    commutative = d.algebra.is_commutative()
    cocommutative = d.hopf.is_cocommutative()
    local = hopf_mod.is_local(d.hopf)
    semisimple = hopf_mod.is_semisimple(d.hopf)

    tame = all(facts)
    original_form = commutative and cocommutative
    hopf_galois = j.bijective if original_form else gamma.bijective
    equivalence = local and cocommutative and rank_equal and faithful and is_extension

    if not is_extension:
        classification = "not-an-extension"
    elif tame and hopf_galois:
        classification = "tame+hopf-galois"
    elif tame:
        classification = "tame"
    elif hopf_galois:
        classification = "hopf-galois"
    else:
        classification = "H-extension"

    return ExtensionReport(
        invariants_basis=homology.fixed_basis,
        invariants_are_base=is_extension,
        faithful=faithful,
        rank_equal=rank_equal,
        integral_image_basis=homology.image_basis,
        integral_surjective=integral_surjective,
        j_rank=j.rank,
        j_bijective=j.bijective,
        gamma_rank=gamma.rank,
        gamma_bijective=gamma.bijective,
        galois_form="original" if original_form else "principal-homogeneous",
        is_extension=is_extension,
        tame=tame,
        hopf_galois=hopf_galois,
        hopf_local=local,
        hopf_cocommutative=cocommutative,
        algebra_commutative=commutative,
        hopf_semisimple=semisimple,
        equivalence_applies=equivalence,
        classification=classification,
    )


def _tame_facts(d, faithful, homology=None):
    """The four facts whose conjunction is tameness, cheapest first, so
    `all` stops at the first false one: rank(S) = rank(H), faithfulness (as
    `is_faithful` decides it), S^H = R.1 and I.S = R.1, read off `homology`,
    solved here when not given.  Reduced echelon bases are equal exactly
    when their spans are."""
    yield d.algebra.dim == d.hopf.dim
    yield faithful
    homology = homology or hopfological_homology_module(d.hopf, d.action)
    base_line = linalg.echelon_basis(d.domain, [d.algebra.unit])
    yield homology.fixed_basis == base_line
    yield homology.image_basis == base_line


# ---------------------------------------------------------------------------
# total integral (Prop D1 recipe)


@record
class TotalIntegralResult:
    present: bool
    matrix: ColumnMap | None
    z: tuple | None
    obstruction: str | None

    def __bool__(self):
        return self.present


def dual_action(h):
    """Action tensor of f -> (h -> f) on H*, where (h -> f)(x) = f(x h).

    This is the left H-module structure making H* free of rank one.
    """
    n, mult = h.dim, h.algebra.mult
    # e_a -> e_i* = sum_j mult[j][a][i] e_j*
    entries = ((a, i, j, c) for j in range(n) for a in range(n) for i, c in mult[j][a])
    return hopf_mod.sparse_tensor(h.domain, (n, n, n), entries, 2)


def total_integral_map(d):
    """H-module map g : H* -> S with g(1) = 1, when the extension is tame.

    Follows the constructive proof: H* is free of rank one over H, so
    pick a free generator t normalized so that the integral sends t to
    the counit, solve integral . z = 1 in S, and set g(h -> t) = h . z.
    Returns the obstruction instead when a tameness condition fails.
    """
    dom = d.domain
    linalg.require_field(dom, "total integral")
    facts = tuple(_tame_facts(d, is_faithful(d)))
    if not all(facts):
        rank_equal, faithful, invariants_are_base, _ = facts
        if not invariants_are_base:
            obstruction = "S^H differs from R.1"
        elif not rank_equal:
            obstruction = "rank(S) differs from rank(H)"
        else:
            # a faithful S with S^H = R.1 has I.S = R.1, a nonzero subspace of S^H
            obstruction = "S is not a faithful H-module"
        return TotalIntegralResult(False, None, None, obstruction)

    h = d.hopf
    n, ds = h.dim, d.algebra.dim
    integral = hopf_mod.left_integrals(h).basis[0]
    harpoon = dual_action(h)
    dual_maps = action_maps(dom, harpoon, n)

    def candidates():
        for i in range(n):
            yield linalg.unit_vec(dom, n, i)
        for i in range(n):
            for j in range(i + 1, n):
                vec = [dom.zero] * n
                vec[i] = dom.one
                vec[j] = dom.one
                yield tuple(vec)
        yield (dom.one,) * n

    free = None
    for t0 in candidates():
        phi = ColumnMap.from_cols(dom, n, [m.apply(t0) for m in dual_maps])  # columns e_a -> t0
        if linalg.rank(phi) == n:
            free = (t0, phi)
            break
    if free is None:
        raise PreconditionError("no free generator of H* found in the candidate scan")
    t0, phi = free

    # integral -> t0 = t0(integral) counit, and t0(integral) != 0 as t0 is a
    # free generator, so no check: read the ratio at a nonzero counit entry
    lam_t0 = acting_map(dom, harpoon, n, integral).apply(t0)
    ratio = next(dom.div(v, e) for v, e in zip(lam_t0, h.counit) if e != dom.zero)
    # now phi maps h to h -> t with integral -> t = counit
    phi = ColumnMap.combination(dom, [dom.inv(ratio)], [phi], n, n)

    # tameness puts 1 in integral . S, so a solution exists
    z = linalg.solve(acting_map(dom, d.action, ds, integral), d.algebra.unit)

    # g(e_a -> t) = e_a . z, so as a matrix g = Z . phi^{-1}: H-linear, as
    # g(e_b e_a -> t) = (e_b e_a) . z, and g(1) = g(integral -> t) = integral . z = 1
    zmat = ColumnMap.from_cols(dom, ds, [m.apply(z) for m in action_maps(dom, d.action, ds)])
    return TotalIntegralResult(True, zmat @ linalg.invert(phi), z, None)


# ---------------------------------------------------------------------------
# Hopfological homology of a module


@record
class ModuleHomology:
    dim_fixed: int
    dim_image: int
    dim_h0: int
    fixed_basis: tuple
    image_basis: tuple


def hopfological_homology_module(h, action):
    """dim V^H / I V for a verified H-module action tensor.

    The module law is decided where the action enters (a module file,
    `module_algebra`) or holds by construction, so it is not checked
    again here.  I V lies inside V^H, as the integral absorbs the
    action: h (I v) = counit(h) I v.
    """
    dom = h.domain
    linalg.require_field(dom, "hopfological homology")
    dim = len(action[0]) if action else 0
    fixed = hopf_mod.fixed_points(h, action)
    integral = hopf_mod.left_integrals(h).basis[0]
    image = linalg.column_space_basis(acting_map(dom, action, dim, integral))
    return ModuleHomology(
        dim_fixed=len(fixed),
        dim_image=len(image),
        dim_h0=len(fixed) - len(image),
        fixed_basis=fixed,
        image_basis=image,
    )


# ---------------------------------------------------------------------------
# modules over the smash product


@record
class SmashModuleData:
    """Left S#H-module given by an action tensor over the smash basis.

    A plain record.  An explicit action enters through
    :func:`smash_module`, which decides the module law over S#H; the
    regular module, the module S and direct sums are built directly,
    since S#H and S are S#H-modules whenever S is an H-module algebra
    and a direct sum of modules is a module.
    """

    smash: SmashProductData
    dim: int
    action: tuple  # action[smash index][m] = (t, c) pairs of the image

    @property
    def domain(self):
        return self.smash.algebra.domain

    def h_action(self):
        """Action tensor of H through h -> 1_S # h."""
        d = self.smash.base
        ds, dh = d.algebra.dim, d.hopf.dim
        index = self.smash.index
        return self._restricted_action(
            d.algebra.unit, [[index(i, a) for i in range(ds)] for a in range(dh)]
        )

    def s_action(self):
        """Action tensor of S through s -> s # 1_H."""
        d = self.smash.base
        ds, dh = d.algebra.dim, d.hopf.dim
        index = self.smash.index
        return self._restricted_action(
            d.hopf.algebra.unit, [[index(i, a) for a in range(dh)] for i in range(ds)]
        )

    def _restricted_action(self, coeffs, indices):
        """Action tensor of x -> sum_k coeffs[k] e_indices[x][k] in S#H."""
        mul, zero = self.domain.mul, self.domain.zero
        entries = (
            (x, m, u, mul(c, w))
            for x, row in enumerate(indices)
            for k, c in enumerate(coeffs) if c != zero
            for m in range(self.dim)
            for u, w in self.action[row[k]][m]
        )
        return hopf_mod.sparse_tensor(
            self.domain, (len(indices), self.dim, self.dim), entries, 2
        )


def smash_module(smash_data, dim, action):
    """Validated smash module; checks the module law over S#H."""
    data = SmashModuleData(smash_data, dim, action)
    verify_module_over_algebra(smash_data.algebra, data.action, "smash-module-law")
    return data


def regular_smash_module(smash_data):
    """S#H acting on itself by left multiplication."""
    alg = smash_data.algebra
    return SmashModuleData(smash_data, alg.dim, alg.mult)


def algebra_smash_module(smash_data):
    """S with its canonical S#H-structure: (s#h) . t = s (h . t)."""
    d = smash_data.base
    return SmashModuleData(smash_data, d.algebra.dim, _smash_action_on_algebra(d))


def _smash_action_on_algebra(d):
    """Action tensor of S#H on S over the smash basis s*dim(H)+h:
    (s#h) . t = s (h . t), so e_s#e_h acts as L_s A_h, L_s being left
    multiplication by e_s and A_h the action of e_h."""
    ds = d.algebra.dim
    acts = action_maps(d.domain, d.action, ds)
    return tuple((left @ act).cols for left in action_maps(d.domain, d.algebra.mult, ds) for act in acts)


def direct_sum_smash_modules(m1, m2):
    if m1.smash is not m2.smash and m1.smash != m2.smash:
        raise ShapeError("direct sum needs modules over the same smash product")
    dim = m1.dim + m2.dim
    entries = [
        (a, shift + m, shift + t, c)
        for shift, module in ((0, m1), (m1.dim, m2))
        for a, block in enumerate(module.action)
        for m, cell in enumerate(block)
        for t, c in cell
    ]
    action = hopf_mod.sparse_tensor(m1.domain, (m1.smash.dim, dim, dim), entries, 2)
    return SmashModuleData(m1.smash, dim, action)


def fixed_points_smash(module):
    """M^H inside a smash module, as a canonical echelon basis."""
    d = module.smash.base
    return hopf_mod.fixed_points(d.hopf, module.h_action())


@record
class MoritaReport:
    matrix: ColumnMap
    bijective: bool
    dim_module: int
    dim_fixed: int
    fixed_basis: tuple


def morita_decomposition(module):
    """Evaluation map S (x) M^H -> M and its bijectivity verdict.

    Only available when j is bijective (the Morita lemma hypothesis).
    """
    d = module.smash.base
    j = galois_map_j(d)
    if not j.bijective:
        raise PreconditionError(
            "the Morita decomposition needs j : S#H -> End(S) bijective"
        )
    fixed = fixed_points_smash(module)
    ev = evaluation_map(module.domain, module.s_action(), module.dim, fixed)
    return MoritaReport(ev.matrix, ev.bijective, module.dim, len(fixed), fixed)


def evaluation_map(domain, s_action, dim, vectors):
    """S (x) W -> M, e_s (x) w -> e_s . w, for W spanned by `vectors` in M.

    Columns are ordered (s, w) with s slowest; the result carries its
    rank and bijectivity verdict.
    """
    cols = [act.apply(w) for act in action_maps(domain, s_action, dim) for w in vectors]
    return GaloisMap.of(ColumnMap.from_cols(domain, dim, cols))
