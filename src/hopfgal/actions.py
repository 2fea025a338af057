"""Module algebras, smash products, Galois maps and tameness over fields.

The pair (H, S) is stored as an action tensor act[h][s] giving the
coefficient vector of e_h . e_s.  The comodule structure on S that the
second Galois map needs is obtained from the action through the finite
dual: sigma(t) = sum_a (e_a . t) (x) e_a*, with the pairing fixed as
evaluation on the stored bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hopf as hopf_mod
from . import linalg
from .errors import (
    InconsistencyError,
    PreconditionError,
    ShapeError,
)
from .hopf import AlgebraData, HopfAlgebraData
from .linalg import Matrix, sparse_entries as _sparse
from .reporting import CheckResult, VerificationReport


@dataclass(frozen=True)
class ModuleAlgebraData:
    """An algebra S with an H-action candidate; laws checked separately."""

    hopf: HopfAlgebraData
    algebra: AlgebraData
    action: tuple  # action[h][s] = coefficient vector in S

    def __post_init__(self):
        if self.hopf.domain != self.algebra.domain:
            raise ShapeError("hopf and algebra domains differ")
        if len(self.action) != self.hopf.dim or any(
            len(block) != self.algebra.dim
            or any(len(v) != self.algebra.dim for v in block)
            for block in self.action
        ):
            raise ShapeError("action tensor shape mismatch")

    @property
    def domain(self):
        return self.hopf.domain

    def action_matrix(self, hvec):
        """Matrix of s -> hvec . s for a general element of H."""
        return acting_matrix(self.domain, self.action, self.algebra.dim, hvec)

    def basis_action_matrix(self, a):
        return Matrix.from_cols(self.domain, list(self.action[a]), self.algebra.dim)


def action_matrices(domain, action, dim):
    """One matrix per basis element of the acting algebra; action[a][m] = e_a . e_m."""
    return [Matrix.from_cols(domain, list(block), dim) for block in action]


def acting_matrix(domain, action, dim, hvec):
    """Matrix of v -> hvec . v for a general element hvec of the acting algebra."""
    return linalg.combination(domain, hvec, action_matrices(domain, action, dim), dim, dim)


def module_algebra(hopf, algebra, action_triples):
    """Validated module algebra from sparse action entries (h, s, t, c)."""
    action = hopf_mod.dense_tensor_from_triples(
        hopf.domain, (hopf.dim, algebra.dim, algebra.dim), action_triples
    )
    data = ModuleAlgebraData(hopf, algebra, action)
    report = verify_module_algebra(data)
    if not report.passed:
        bad = report.failures()[0]
        raise InconsistencyError(f"{bad.name} fails at {bad.witness}")
    return data


def verify_module_over_algebra(alg, action):
    """Witness for the module law of an algebra action on a vector space.

    action[a][m] is the image vector of basis m under e_a; returns None
    when (a b) . m = a . (b . m) and 1 . m = m hold, else an index pair.
    """
    dim = len(action[0]) if action else 0
    return alg.representation_witness(action_matrices(alg.domain, action, dim))


def verify_module(h, action):
    """Module-law witness for a Hopf-algebra action (None when lawful)."""
    return verify_module_over_algebra(h.algebra, action)


def verify_module_algebra(d):
    """Module law plus module-algebra law, each with a witness."""
    dom = d.domain
    h, alg = d.hopf, d.algebra

    module_witness = verify_module(h, d.action)
    checks = [CheckResult("module-law", module_witness is None, module_witness)]

    witness = None
    for a in range(h.dim):
        act_a = d.basis_action_matrix(a)
        target = linalg.vec_scale(dom, h.counit[a], alg.unit)
        if act_a.apply(alg.unit) != target:
            witness = (a, "unit")
            break
        for s in range(alg.dim):
            for t in range(alg.dim):
                lhs = act_a.apply(alg.mult[s][t])
                rhs = [dom.zero] * alg.dim
                for j, k, c in h.comult_sparse(a):
                    left = d.action[j][s]
                    right = d.action[k][t]
                    prod = alg.mul_vec(left, right)
                    for u, v in enumerate(prod):
                        rhs[u] = dom.add(rhs[u], dom.mul(c, v))
                if list(lhs) != rhs:
                    witness = (a, s, t)
                    break
            if witness:
                break
        if witness:
            break
    checks.append(CheckResult("module-algebra-law", witness is None, witness))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# invariants, faithfulness, integrals acting


def invariants(d):
    """Canonical echelon basis of S^H = {s : h s = counit(h) s}."""
    return fixed_points(d.hopf, d.action)


def fixed_points(h, action):
    """V^H for a plain H-module given by an action tensor."""
    dom = h.domain
    dim = len(action[0]) if action else 0
    ident = Matrix.identity(dom, dim)
    blocks = [
        act - ident.scale(e) for act, e in zip(action_matrices(dom, action, dim), h.counit)
    ]
    return linalg.kernel_basis(linalg.stack(blocks))


def is_faithful(d):
    """Kernel of H -> End(S) is zero."""
    dom = d.domain
    linalg.require_field(dom, "faithfulness")
    ds, dh = d.algebra.dim, d.hopf.dim
    terms = (
        ((u * ds + v, a), c)
        for a in range(dh) for v in range(ds)
        for u, c in enumerate(d.action[a][v]) if c != dom.zero
    )
    return linalg.rank(Matrix.from_entries(dom, ds * ds, dh, terms)) == dh


def integral_image(d):
    """Echelon basis of I.S, the image of the integral's action."""
    integral = hopf_mod.left_integrals(d.hopf).basis[0]
    act = d.action_matrix(integral)
    return linalg.column_space_basis(act)


# ---------------------------------------------------------------------------
# smash product


@dataclass(frozen=True)
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

    Basis index s * dim(H) + h; associativity is re-verified by the
    AlgebraData constructor and surfaces as an inconsistency error.
    """
    dom = d.domain
    h, s_alg = d.hopf, d.algebra
    ds, dh = s_alg.dim, h.dim
    dim = ds * dh
    mult = [[None] * dim for _ in range(dim)]
    for i in range(ds):
        for a in range(dh):
            for j in range(ds):
                for b in range(dh):
                    out = [dom.zero] * dim
                    for c1, c2, w in h.comult_sparse(a):
                        moved = d.action[c1][j]
                        for t, w2 in _sparse(moved, dom.zero):
                            for u, w3 in s_alg.mult_sparse[i][t]:
                                for v, w4 in h.algebra.mult_sparse[c2][b]:
                                    idx = u * dh + v
                                    out[idx] = dom.add(
                                        out[idx],
                                        dom.mul(dom.mul(w, w2), dom.mul(w3, w4)),
                                    )
                    mult[i * dh + a][j * dh + b] = tuple(out)
    unit = [dom.zero] * dim
    for i, a in enumerate(s_alg.unit):
        for j, b in enumerate(h.algebra.unit):
            unit[i * dh + j] = dom.mul(a, b)
    labels = tuple(
        f"{s_alg.labels[i]}#{h.labels[a]}" for i in range(ds) for a in range(dh)
    )
    try:
        alg = AlgebraData(dom, dim, labels, tuple(tuple(r) for r in mult), tuple(unit))
    except Exception as exc:
        raise InconsistencyError(f"smash product not associative: {exc}") from exc
    return SmashProductData(alg, d)


# ---------------------------------------------------------------------------
# Galois maps


@dataclass(frozen=True)
class GaloisMap:
    matrix: Matrix
    rank: int
    bijective: bool

    @classmethod
    def of(cls, matrix):
        """The map with its rank; bijective means square of full rank."""
        r = linalg.rank(matrix)
        return cls(matrix, r, matrix.nrows == matrix.ncols and r == matrix.nrows)


def galois_map_j(d):
    """Matrix of j : S#H -> End(S), j(s (x) h)(t) = s (h . t).

    Rows are indexed by End(S) basis (u, v) = u*dim(S)+v, columns by
    s*dim(H)+h; bijectivity is full rank on a square matrix.
    """
    dom = d.domain
    linalg.require_field(dom, "Galois map")
    ds, dh = d.algebra.dim, d.hopf.dim
    terms = (
        ((u * ds + v, i * dh + a), dom.mul(w, w2))
        for i in range(ds)
        for a in range(dh)
        for v in range(ds)
        for t, w in _sparse(d.action[a][v], dom.zero)
        for u, w2 in d.algebra.mult_sparse[i][t]
    )
    return GaloisMap.of(Matrix.from_entries(dom, ds * ds, ds * dh, terms))


def galois_map_gamma(d):
    """Matrix of gamma : S (x) S -> S (x) H*, s (x) t -> (s (x) 1) sigma(t).

    sigma is the coaction induced by the action through the dual basis.
    Rows are (u, a) = u*dim(H)+a, columns (i, j) = i*dim(S)+j.
    """
    dom = d.domain
    linalg.require_field(dom, "Galois map")
    ds, dh = d.algebra.dim, d.hopf.dim
    terms = (
        ((u * dh + a, i * ds + j), dom.mul(w, w2))
        for i in range(ds)
        for j in range(ds)
        for a in range(dh)
        for t, w in _sparse(d.action[a][j], dom.zero)
        for u, w2 in d.algebra.mult_sparse[i][t]
    )
    return GaloisMap.of(Matrix.from_entries(dom, ds * dh, ds * ds, terms))


def gamma_is_algebra_map(d):
    """Whether gamma is multiplicative into S (x) H* (componentwise product).

    Only meaningful when gamma is bijective; raises otherwise.
    """
    gamma = galois_map_gamma(d)
    if not gamma.bijective:
        raise PreconditionError("gamma is not bijective, the algebra-map lemma does not apply")
    dom = d.domain
    mul, zero = dom.mul, dom.zero
    ds, dh = d.algebra.dim, d.hopf.dim
    s_mult = d.algebra.mult_sparse
    dual_mult = hopf_mod.dual(d.hopf).algebra.mult_sparse
    # gamma(x (x) y) as (u, a, coeff) triples: coefficient of e_u (x) e_a*
    images = [
        [(p // dh, p % dh, v) for p, v in enumerate(gamma.matrix.col(col)) if v != zero]
        for col in range(ds * ds)
    ]

    for x in range(ds):
        for y in range(ds):
            for xp in range(ds):
                for yp in range(ds):
                    # gamma(x x' (x) y y')
                    lhs = linalg.sparse_sum(dom, (
                        ((u, a), mul(mul(c1, c2), v))
                        for i, c1 in s_mult[x][xp]
                        for j, c2 in s_mult[y][yp]
                        for u, a, v in images[i * ds + j]
                    ))
                    # gamma(x (x) y) gamma(x' (x) y') in S (x) H*
                    rhs = linalg.sparse_sum(dom, (
                        ((u, a), mul(mul(v1, v2), mul(w1, w2)))
                        for u1, a1, v1 in images[x * ds + y]
                        for u2, a2, v2 in images[xp * ds + yp]
                        for u, w1 in s_mult[u1][u2]
                        for a, w2 in dual_mult[a1][a2]
                    ))
                    if lhs != rhs:
                        return False
    return True


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
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
    dom = d.domain
    linalg.require_field(dom, "extension classification")
    inv = invariants(d)
    base_line = linalg.echelon_basis(dom, [d.algebra.unit])
    inv_is_base = linalg.span_eq(dom, inv, base_line)
    faithful = is_faithful(d)
    rank_equal = d.algebra.dim == d.hopf.dim
    image = integral_image(d)
    if not linalg.span_le(dom, image, inv):
        raise InconsistencyError("I.S is not contained in S^H; corrupted action data")
    integral_surjective = linalg.span_eq(dom, image, base_line)
    j = galois_map_j(d)
    gamma = galois_map_gamma(d)
    commutative = d.algebra.is_commutative()
    cocommutative = d.hopf.is_cocommutative()
    local = hopf_mod.is_local(d.hopf)
    semisimple = hopf_mod.is_semisimple(d.hopf)

    is_extension = inv_is_base
    tame = is_extension and rank_equal and faithful and integral_surjective
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
        invariants_basis=inv,
        invariants_are_base=inv_is_base,
        faithful=faithful,
        rank_equal=rank_equal,
        integral_image_basis=image,
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


# ---------------------------------------------------------------------------
# total integral (Prop D1 recipe)


@dataclass(frozen=True)
class TotalIntegralResult:
    present: bool
    matrix: Matrix | None
    z: tuple | None
    obstruction: str | None

    def __bool__(self):
        return self.present


def dual_action_matrix(h, a):
    """Matrix of f -> (e_a -> f) on H* where (h -> f)(x) = f(x h).

    This is the left H-module structure making H* free of rank one.
    """
    dom = h.domain
    n = h.dim
    # e_a -> e_i* = sum_j mult[j][a][i] e_j*
    rows = [[h.algebra.mult[j][a][i] for i in range(n)] for j in range(n)]
    return Matrix(dom, rows)


def total_integral_map(d):
    """H-module map g : H* -> S with g(1) = 1, when the extension is tame.

    Follows the constructive proof: H* is free of rank one over H, so
    pick a free generator t normalized so that the integral sends t to
    the counit, solve integral . z = 1 in S, and set g(h -> t) = h . z.
    Returns the obstruction instead when I.S is a proper subspace of
    R.1 or another tameness condition fails.
    """
    dom = d.domain
    linalg.require_field(dom, "total integral")
    report = classify_extension(d)
    if not report.tame:
        if not report.invariants_are_base:
            obstruction = "S^H differs from R.1"
        elif not report.rank_equal:
            obstruction = "rank(S) differs from rank(H)"
        elif not report.faithful:
            obstruction = "S is not a faithful H-module"
        else:
            obstruction = "I.S = 0 (trace map not surjective)"
        return TotalIntegralResult(False, None, None, obstruction)

    h = d.hopf
    n = h.dim
    integral = hopf_mod.left_integrals(h).basis[0]
    dual_mats = [dual_action_matrix(h, a) for a in range(n)]

    def harpoon_matrix(t_vec):
        """Columns a: e_a -> t."""
        cols = [m.apply(t_vec) for m in dual_mats]
        return Matrix.from_cols(dom, cols, n)

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
        phi = harpoon_matrix(t0)
        if linalg.rank(phi) == n:
            free = (t0, phi)
            break
    if free is None:
        raise InconsistencyError("no free generator of H* found in the candidate scan")
    t0, phi = free

    # integral -> t0 is an invariant element, necessarily c * counit
    lam_t0 = linalg.combination(dom, integral, dual_mats, n, n).apply(t0)
    ratio = None
    for v, e in zip(lam_t0, h.counit):
        if e != dom.zero:
            ratio = dom.div(v, e)
            break
    if ratio is None or list(lam_t0) != list(linalg.vec_scale(dom, ratio, h.counit)) or ratio == dom.zero:
        raise InconsistencyError("integral image of the free generator is not a counit multiple")
    phi = phi.scale(dom.inv(ratio))  # now phi maps h to h -> t with integral -> t = counit

    z = linalg.solve(d.action_matrix(integral), d.algebra.unit)
    if z is None:
        raise InconsistencyError("tame extension but integral . z = 1 has no solution")

    # g(e_a -> t) = e_a . z, so as a matrix g = Z . phi^{-1}
    zcols = [d.basis_action_matrix(a).apply(z) for a in range(n)]
    zmat = Matrix.from_cols(dom, zcols, d.algebra.dim)
    g = zmat @ linalg.invert(phi)

    # verify H-linearity and normalization exactly
    unit_dual = tuple(h.counit)
    if g.apply(unit_dual) != tuple(d.algebra.unit):
        raise InconsistencyError("constructed total integral has g(1) != 1")
    for a in range(n):
        left = g @ dual_mats[a]
        right = d.basis_action_matrix(a) @ g
        if left != right:
            raise InconsistencyError("constructed total integral is not H-linear")
    return TotalIntegralResult(True, g, z, None)


# ---------------------------------------------------------------------------
# Hopfological homology of a module


@dataclass(frozen=True)
class ModuleHomology:
    dim_fixed: int
    dim_image: int
    dim_h0: int
    fixed_basis: tuple
    image_basis: tuple


def hopfological_homology_module(h, action):
    """dim V^H / I V for a verified H-module action tensor.

    I V is always inside V^H (the integral absorbs the action); that
    inclusion is asserted on every run.
    """
    dom = h.domain
    linalg.require_field(dom, "hopfological homology")
    witness = verify_module(h, action)
    if witness is not None:
        raise InconsistencyError(f"module law fails at {witness}")
    dim = len(action[0]) if action else 0
    fixed = fixed_points(h, action)
    integral = hopf_mod.left_integrals(h).basis[0]
    act = acting_matrix(dom, action, dim, integral)
    image = linalg.column_space_basis(act)
    if not linalg.span_le(dom, image, fixed):
        raise InconsistencyError("I.V is not contained in V^H")
    return ModuleHomology(
        dim_fixed=len(fixed),
        dim_image=len(image),
        dim_h0=len(fixed) - len(image),
        fixed_basis=fixed,
        image_basis=image,
    )


# ---------------------------------------------------------------------------
# modules over the smash product


@dataclass(frozen=True)
class SmashModuleData:
    """Left S#H-module given by an action tensor over the smash basis."""

    smash: SmashProductData
    dim: int
    action: tuple  # action[smash index][m] = image vector

    def __post_init__(self):
        if len(self.action) != self.smash.dim or any(
            len(block) != self.dim or any(len(v) != self.dim for v in block)
            for block in self.action
        ):
            raise ShapeError("smash module action shape mismatch")

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
        mats = action_matrices(self.domain, self.action, self.dim)
        return tuple(
            tuple(
                linalg.combination(
                    self.domain, coeffs, [mats[i] for i in row], self.dim, self.dim
                ).cols()
            )
            for row in indices
        )


def smash_module(smash_data, dim, action):
    """Validated smash module; checks the module law over S#H."""
    data = SmashModuleData(smash_data, dim, action)
    witness = verify_module_over_algebra(smash_data.algebra, data.action)
    if witness is not None:
        raise InconsistencyError(f"smash module law fails at {witness}")
    return data


def regular_smash_module(smash_data):
    """S#H acting on itself by left multiplication."""
    alg = smash_data.algebra
    action = tuple(tuple(alg.mult[a][m] for m in range(alg.dim)) for a in range(alg.dim))
    return smash_module(smash_data, alg.dim, action)


def algebra_smash_module(smash_data):
    """S with its canonical S#H-structure: (s#h) . t = s (h . t)."""
    d = smash_data.base
    dom = d.domain
    ds = d.algebra.dim
    action = []
    for i in range(ds):
        for a in range(d.hopf.dim):
            block = []
            for m in range(ds):
                moved = d.action[a][m]
                out = [dom.zero] * ds
                for t, w in _sparse(moved, dom.zero):
                    for u, w2 in d.algebra.mult_sparse[i][t]:
                        out[u] = dom.add(out[u], dom.mul(w, w2))
                block.append(tuple(out))
            action.append(tuple(block))
    return smash_module(smash_data, ds, tuple(action))


def direct_sum_smash_modules(m1, m2):
    if m1.smash is not m2.smash and m1.smash != m2.smash:
        raise ShapeError("direct sum needs modules over the same smash product")
    dom = m1.domain
    dim = m1.dim + m2.dim
    action = []
    for a in range(m1.smash.dim):
        block = []
        for m in range(m1.dim):
            block.append(tuple(m1.action[a][m]) + linalg.zero_vec(dom, m2.dim))
        for m in range(m2.dim):
            block.append(linalg.zero_vec(dom, m1.dim) + tuple(m2.action[a][m]))
        action.append(tuple(block))
    return smash_module(m1.smash, dim, tuple(action))


def fixed_points_smash(module):
    """M^H inside a smash module, as a canonical echelon basis."""
    d = module.smash.base
    return fixed_points(d.hopf, module.h_action())


@dataclass(frozen=True)
class MoritaReport:
    matrix: Matrix
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
    cols = [mat.apply(w) for mat in action_matrices(domain, s_action, dim) for w in vectors]
    return GaloisMap.of(Matrix.from_cols(domain, cols, dim))
