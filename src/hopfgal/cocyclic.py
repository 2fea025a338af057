"""Comodules, cyclic-type operators, bar complexes and shift checks.

Conventions fixed here once:

* ComoduleData stores a right coaction, rho(e_m) = sum c e_m' (x) e_h.
* A right comodule is converted to a left one through the inverse
  antipode: the left legs of m are alpha^{-1}(m_(1)) (x) m_(0).  The
  anti-Yetter-Drinfeld and stability formulas are stated left-left and
  evaluated through that dictionary.
* Tensor powers of comodules multiply their legs in H.
* "Level n" of the cyclic family carries n + 1 algebra slots plus the
  coefficient module, with lexicographic flattening, left slot slowest.

Face maps at level n multiply adjacent slots; the last face and the
cyclic operator rotate the final slot to the front through its
coaction legs, acting on the coefficients by the H-leg.  The operators
fail cyclicity on the full space; t restricted to the cotensor
subspace with stable anti-Yetter-Drinfeld coefficients satisfies
t^(n+1) = id, and that restriction is what the identity checks verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import actions as actions_mod
from . import hopf as hopf_mod
from . import linalg
from .errors import (
    AxiomError,
    InconsistencyError,
    PreconditionError,
    ResourceBoundError,
    ShapeError,
)
from .linalg import Matrix, sparse_entries as _sparse  # noqa: F401 (read by perfbench/tests)

DEFAULT_MAX_DIM = 5000


def _decompose(flat, dims):
    out = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        out.append(r)
    return tuple(reversed(out))


def _compose(idx, dims):
    flat = 0
    for i, d in zip(idx, dims):
        flat = flat * d + i
    return flat


# ---------------------------------------------------------------------------
# comodules


@dataclass(frozen=True)
class ComoduleData:
    """Right H-comodule; coaction[m][m'][h] is a structure constant.

    Coassociativity and the counit law are enforced at construction, so
    an instance is always a genuine comodule.
    """

    hopf: hopf_mod.HopfAlgebraData
    dim: int
    coaction: tuple

    def __post_init__(self):
        dom = self.hopf.domain
        dh = self.hopf.dim
        if len(self.coaction) != self.dim or any(
            len(block) != self.dim or any(len(row) != dh for row in block)
            for block in self.coaction
        ):
            raise ShapeError("coaction tensor shape mismatch")
        zero = dom.zero
        # counit law: (id (x) counit) rho = id
        for m in range(self.dim):
            out = [zero] * self.dim
            for m2, h, c in self.coaction_sparse(m):
                out[m2] = dom.add(out[m2], dom.mul(c, self.hopf.counit[h]))
            if out != list(linalg.unit_vec(dom, self.dim, m)):
                raise AxiomError("comodule-counit", (m,))
        # coassociativity: (rho (x) id) rho = (id (x) Delta) rho
        mul = dom.mul
        for m in range(self.dim):
            rho = self.coaction_sparse(m)
            left = linalg.sparse_sum(dom, (
                ((m3, h2, h), mul(c, c2))
                for m2, h, c in rho for m3, h2, c2 in self.coaction_sparse(m2)
            ))
            right = linalg.sparse_sum(dom, (
                ((m2, j, k), mul(c, c2))
                for m2, h, c in rho for j, k, c2 in self.hopf.comult_sparse(h)
            ))
            if left != right:
                raise AxiomError("comodule-coassociativity", (m,))

    @property
    def domain(self):
        return self.hopf.domain

    @cached_property
    def _coaction_lists(self):
        zero = self.domain.zero
        return tuple(
            tuple(
                (m2, h, c) for m2, row in enumerate(block) for h, c in enumerate(row) if c != zero
            )
            for block in self.coaction
        )

    def coaction_sparse(self, m):
        """The nonzero (m2, h, c) triples of rho(e_m)."""
        return self._coaction_lists[m]


def comodule_from_triples(hopf, dim, triples):
    coaction = hopf_mod.dense_tensor_from_triples(hopf.domain, (dim, dim, hopf.dim), triples)
    return ComoduleData(hopf, dim, coaction)


def trivial_comodule(hopf, dim):
    dom = hopf.domain
    coaction = tuple(
        tuple(
            tuple(hopf.algebra.unit[h] if m2 == m else dom.zero for h in range(hopf.dim))
            for m2 in range(dim)
        )
        for m in range(dim)
    )
    return ComoduleData(hopf, dim, coaction)


def regular_comodule(hopf):
    """H coacting on itself by the comultiplication."""
    return ComoduleData(hopf, hopf.dim, hopf.comult)


def module_to_comodule(h, action):
    """Right dual(H)-comodule from an H-action: rho(m) = sum (e_a . m) (x) e_a*."""
    linalg.require_field(h.domain, "module/comodule dictionary")
    witness = actions_mod.verify_module(h, action)
    if witness is not None:
        raise InconsistencyError(f"module law fails at {witness}")
    dual_h = hopf_mod.dual(h)
    dim = len(action[0]) if action else 0
    coaction = tuple(
        tuple(
            tuple(action[a][m][m2] for a in range(h.dim))
            for m2 in range(dim)
        )
        for m in range(dim)
    )
    return ComoduleData(dual_h, dim, coaction)


def comodule_to_module(c):
    """Action tensor of dual(hopf) on the comodule: f . m = f(m_(1)) m_(0)."""
    dual_h = hopf_mod.dual(c.hopf)
    action = tuple(
        tuple(
            tuple(c.coaction[m][m2][a] for m2 in range(c.dim))
            for m in range(c.dim)
        )
        for a in range(c.hopf.dim)
    )
    witness = actions_mod.verify_module(dual_h, action)
    if witness is not None:
        raise InconsistencyError(f"dictionary produced a non-module at {witness}")
    return dual_h, action


def coinvariants(c):
    """Canonical echelon basis of {m : rho(m) = m (x) 1}."""
    dom = c.domain
    linalg.require_field(dom, "coinvariants")
    dh = c.hopf.dim
    terms = [
        ((m2 * dh + h, m), coeff) for m in range(c.dim) for m2, h, coeff in c.coaction_sparse(m)
    ]
    terms += [
        ((m * dh + h, m), dom.neg(u)) for m in range(c.dim)
        for h, u in enumerate(c.hopf.algebra.unit) if u != dom.zero
    ]
    return linalg.kernel_basis(Matrix.from_entries(dom, c.dim * dh, c.dim, terms))


@dataclass(frozen=True)
class ComoduleHomology:
    dim_coinvariants: int
    dim_image: int
    dim_h0: int


def hopfological_homology_comodule(c):
    """dim M^coH / (integral of the dual acting on M).

    The integral acts through the module structure the dictionary
    induces over dual(H); its image is asserted to lie inside the
    coinvariants.
    """
    dom = c.domain
    coinv = coinvariants(c)
    dual_h, action = comodule_to_module(c)
    lam = hopf_mod.left_integrals(dual_h).basis[0]
    act = actions_mod.acting_matrix(dom, action, c.dim, lam)
    image = linalg.column_space_basis(act)
    if not linalg.span_le(dom, image, coinv):
        raise InconsistencyError("I.M is not contained in M^coH")
    return ComoduleHomology(len(coinv), len(image), len(coinv) - len(image))


# ---------------------------------------------------------------------------
# anti-Yetter-Drinfeld data


@dataclass(frozen=True)
class AydModuleData:
    """A module and a comodule over one H; AYD laws checked by the ops."""

    comodule: ComoduleData
    action: tuple  # action[h][m] image vectors over the same H

    def __post_init__(self):
        witness = actions_mod.verify_module(self.comodule.hopf, self.action)
        if witness is not None:
            raise InconsistencyError(f"module law fails at {witness}")
        if len(self.action) != self.comodule.hopf.dim or any(
            len(block) != self.comodule.dim for block in self.action
        ):
            raise ShapeError("action tensor shape mismatch")

    @property
    def hopf(self):
        return self.comodule.hopf

    @property
    def dim(self):
        return self.comodule.dim

    @property
    def domain(self):
        return self.comodule.domain


def _left_legs(ayd_or_comodule, antipode_inv):
    """Left-coaction legs (h, m0, coeff) of each basis vector."""
    c = ayd_or_comodule
    dom = c.domain
    out = []
    for m in range(c.dim):
        legs = []
        for m0, h1, coeff in c.coaction_sparse(m):
            for hh, w in enumerate(antipode_inv.col(h1)):
                if w != dom.zero:
                    legs.append((hh, m0, dom.mul(coeff, w)))
        out.append(legs)
    return out


def ayd_check(m):
    """Left-left anti-Yetter-Drinfeld compatibility with witness.

    Verifies rho(h . v) = h_(1) v_(-1) alpha(h_(3)) (x) h_(2) . v_(0)
    on every basis pair, in the left coordinates obtained from the
    stored right coaction through the inverse antipode.
    """
    h = m.hopf
    dom = m.domain
    if not hopf_mod.antipode_bijective(h):
        raise PreconditionError("the AYD check needs a bijective antipode")
    alpha = h.antipode
    alpha_inv = linalg.invert(alpha)
    legs = _left_legs(m.comodule, alpha_inv)
    n = h.dim
    zero = dom.zero

    # Delta^2 legs of each basis element of H
    delta2 = []
    for a in range(n):
        terms = []
        for j, k, c in h.comult_sparse(a):
            for a1, a2, c2 in h.comult_sparse(j):
                terms.append((a1, a2, k, dom.mul(c, c2)))
        delta2.append(terms)

    mul = dom.mul

    def rhs_terms(a, v):
        for a1, a2, a3, c in delta2[a]:
            alpha_a3 = alpha.col(a3)
            for hh, m0, w in legs[v]:
                # h_(1) v_(-1) alpha(h_(3)) in H
                hvec = h.algebra.mul_vec(h.algebra.mult[a1][hh], alpha_a3)
                acted = m.action[a2][m0]
                cw = mul(c, w)
                for hi, hv in enumerate(hvec):
                    if hv == zero:
                        continue
                    for mi, mv in enumerate(acted):
                        if mv != zero:
                            yield (hi, mi), mul(cw, mul(hv, mv))

    for a in range(n):
        for v in range(m.dim):
            lhs = linalg.sparse_sum(dom, (
                ((hh, m0), mul(c, w))
                for m2, c in enumerate(m.action[a][v]) if c != zero
                for hh, m0, w in legs[m2]
            ))
            if lhs != linalg.sparse_sum(dom, rhs_terms(a, v)):
                return False, (a, v)
    return True, None


def stability_check(m):
    """Stability v_(-1) . v_(0) = v for all basis vectors, with witness."""
    h = m.hopf
    dom = m.domain
    ok, witness = ayd_check(m)
    if not ok:
        raise PreconditionError(f"stability needs the AYD law; it fails at {witness}")
    alpha_inv = linalg.invert(h.antipode)
    legs = _left_legs(m.comodule, alpha_inv)
    for v in range(m.dim):
        out = [dom.zero] * m.dim
        for hh, m0, w in legs[v]:
            for mi, mv in enumerate(m.action[hh][m0]):
                out[mi] = dom.add(out[mi], dom.mul(w, mv))
        if out != list(linalg.unit_vec(dom, m.dim, v)):
            return False, (v,)
    return True, None


# ---------------------------------------------------------------------------
# comodule algebras and cotensor products


@dataclass(frozen=True)
class ComoduleAlgebraData:
    """Algebra S with a right coaction that is an algebra map."""

    algebra: hopf_mod.AlgebraData
    comodule: ComoduleData

    def __post_init__(self):
        if self.algebra.dim != self.comodule.dim:
            raise ShapeError("algebra and comodule dimensions differ")
        dom = self.algebra.domain
        zero, mul = dom.zero, dom.mul
        c = self.comodule
        h = c.hopf
        # rho(1) = 1 (x) 1
        unit_img = linalg.sparse_sum(dom, (
            ((m2, hh), mul(coeff, w))
            for m, coeff in enumerate(self.algebra.unit) if coeff != zero
            for m2, hh, w in c.coaction_sparse(m)
        ))
        expected = linalg.sparse_sum(dom, (
            ((m, hh), mul(a, b))
            for m, a in enumerate(self.algebra.unit) for hh, b in enumerate(h.algebra.unit)
        ))
        if unit_img != expected:
            raise AxiomError("comodule-algebra-unit", ())
        # rho(s t) = rho(s) rho(t)
        s_mult, h_mult = self.algebra.mult_sparse, h.algebra.mult_sparse
        for s in range(c.dim):
            for t in range(c.dim):
                lhs = linalg.sparse_sum(dom, (
                    ((m2, hh), mul(coeff, w))
                    for m, coeff in s_mult[s][t] for m2, hh, w in c.coaction_sparse(m)
                ))
                rhs = linalg.sparse_sum(dom, (
                    ((u, hh), mul(mul(c1, c2), mul(w1, w2)))
                    for s0, h1, c1 in c.coaction_sparse(s)
                    for t0, h2, c2 in c.coaction_sparse(t)
                    for u, w1 in s_mult[s0][t0]
                    for hh, w2 in h_mult[h1][h2]
                ))
                if lhs != rhs:
                    raise AxiomError("comodule-algebra-mult", (s, t))

    @property
    def hopf(self):
        return self.comodule.hopf

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def domain(self):
        return self.algebra.domain


def module_algebra_to_comodule_algebra(d):
    """Comodule-algebra over dual(H) from an H-module algebra (flagged by callers)."""
    comod = module_to_comodule(d.hopf, d.action)
    return ComoduleAlgebraData(d.algebra, comod)


def tensor_power_comodule(c, k):
    """S^(x)k as a right comodule; legs multiply in H."""
    if k < 1:
        raise ShapeError("tensor power needs k >= 1")
    h = c.hopf
    mul = c.domain.mul
    current = c
    for _ in range(k - 1):
        triples = [
            (x * c.dim + s, x0 * c.dim + s0, hh, mul(mul(c1, c2), w))
            for x in range(current.dim)
            for x0, h1, c1 in current.coaction_sparse(x)
            for s in range(c.dim)
            for s0, h2, c2 in c.coaction_sparse(s)
            for hh, w in h.algebra.mult_sparse[h1][h2]
        ]
        current = comodule_from_triples(h, current.dim * c.dim, triples)
    return current


def cotensor(x, m):
    """Canonical basis of the cotensor equalizer inside X (x) M.

    Kernel of (rho_X (x) id_M) - (id_X (x) rho_M), both sides swapped to
    the common target X (x) M (x) H.
    """
    if x.hopf != m.hopf:
        raise ShapeError("cotensor needs comodules over one Hopf algebra")
    dom = x.domain
    dh = x.hopf.dim
    dm = m.dim
    terms = [
        (((x0 * dm + mi) * dh + h, xi * dm + mi), c)
        for xi in range(x.dim) for mi in range(dm) for x0, h, c in x.coaction_sparse(xi)
    ] + [
        (((xi * dm + m0) * dh + h, xi * dm + mi), dom.neg(c))
        for xi in range(x.dim) for mi in range(dm) for m0, h, c in m.coaction_sparse(mi)
    ]
    return linalg.kernel_basis(Matrix.from_entries(dom, x.dim * dm * dh, x.dim * dm, terms))


# ---------------------------------------------------------------------------
# the cyclic-type operators


def _mult_matrix(alg):
    """S (x) S -> S, column (a, b) = a * b."""
    dom = alg.domain
    n = alg.dim
    cols = [alg.mult[a][b] for a in range(n) for b in range(n)]
    return Matrix.from_cols(dom, cols, n)


def _level_dim(S, M, n):
    return S.dim ** (n + 1) * M.dim


def cyclic_matrix(S, M, n):
    """t_n: rotate the last slot to the front through its coaction legs."""
    dom = S.domain
    ds, dm = S.dim, M.dim
    dims = [ds] * (n + 1) + [dm]
    total = _level_dim(S, M, n)
    zero, mul = dom.zero, dom.mul

    def terms():
        for flat in range(total):
            idx = _decompose(flat, dims)
            slots, mi = idx[:-1], idx[-1]
            for s0, h, c in S.comodule.coaction_sparse(slots[-1]):
                for m2, w in enumerate(M.action[h][mi]):
                    if w != zero:
                        yield (_compose((s0,) + slots[:-1] + (m2,), dims), flat), mul(c, w)

    return Matrix.from_entries(dom, total, total, terms())


def face_matrix(S, M, n, i):
    """d_i at level n (n >= 1): multiply slots i, i+1, or rotate when i = n."""
    if not 1 <= n:
        raise ShapeError("faces exist at level >= 1")
    if not 0 <= i <= n:
        raise ShapeError(f"face index {i} out of range at level {n}")
    if i == n:
        return face_matrix(S, M, n, 0) @ cyclic_matrix(S, M, n)
    ds = S.dim
    return linalg.on_slot(S.domain, ds ** i, _mult_matrix(S.algebra), ds ** (n - 1 - i) * M.dim)


def degeneracy_matrix(S, M, n, i):
    """s_i at level n: insert the unit of S after slot i."""
    if not 0 <= i <= n:
        raise ShapeError(f"degeneracy index {i} out of range at level {n}")
    ds = S.dim
    unit_col = Matrix.from_cols(S.domain, [S.algebra.unit], ds)
    return linalg.on_slot(S.domain, ds ** (i + 1), unit_col, ds ** (n - i) * M.dim)


@dataclass(frozen=True)
class CyclicLevelData:
    level: int
    dim: int
    faces: tuple  # d_0 .. d_n for level >= 1, empty at level 0
    degeneracies: tuple  # s_0 .. s_n
    cyclic: Matrix


def cyclic_level(S, M, n, max_dim=DEFAULT_MAX_DIM):
    """All operator matrices at level n, bounded by max_dim."""
    if S.hopf != M.hopf:
        raise ShapeError("S and M must live over one Hopf algebra")
    dim = _level_dim(S, M, n)
    if dim > max_dim:
        raise ResourceBoundError(
            f"level {n} has dimension {dim} > bound {max_dim}"
        )
    faces = tuple(face_matrix(S, M, n, i) for i in range(n + 1)) if n >= 1 else ()
    degens = tuple(degeneracy_matrix(S, M, n, i) for i in range(n + 1))
    return CyclicLevelData(n, dim, faces, degens, cyclic_matrix(S, M, n))


@dataclass(frozen=True)
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

    @property
    def verdicts(self):
        return (self.simplicial_ok, self.rotation_ok, self.cyclicity_ok)


def check_cyclic_identities(S, M, n, max_dim=DEFAULT_MAX_DIM):
    """Three-part verdict at level n.

    (a) the presimplicial and degeneracy identities on the full space,
    (b) the rotation relation d_n t_n = t_{n-1} d_{n-1} on the full
    space, and (c) t_n^(n+1) = id on the cotensor subspace.  (c) is a
    theorem only for stable anti-Yetter-Drinfeld coefficients; callers
    check those once (`ayd_check`, `stability_check`) and downgrade a
    (c) failure to informational when they do not hold.
    """
    level = cyclic_level(S, M, n, max_dim)
    dom = S.domain
    witness = None

    # presimplicial: d_i d_j = d_{j-1} d_i for i < j (needs level >= 2)
    if n >= 2:
        below = tuple(face_matrix(S, M, n - 1, i) for i in range(n))
        for j in range(1, n + 1):
            for i in range(j):
                if below[i] @ level.faces[j] != below[j - 1] @ level.faces[i]:
                    witness = ("d.d", i, j)
                    break
            if witness:
                break

    # degeneracy identities with sources at level n
    if witness is None:
        above = tuple(face_matrix(S, M, n + 1, i) for i in range(n + 2))
        # i < j or i > j + 1 needs n >= 1, so level n - 1 exists whenever it is read
        degens_below = tuple(degeneracy_matrix(S, M, n - 1, k) for k in range(n))
        ident = Matrix.identity(dom, level.dim)
        for j in range(n + 1):
            s_j = level.degeneracies[j]
            for i in range(n + 2):
                lhs = above[i] @ s_j
                if i == j or i == j + 1:
                    ok = lhs == ident
                elif i < j:
                    ok = lhs == degens_below[j - 1] @ level.faces[i]
                else:  # i > j + 1
                    ok = lhs == degens_below[j] @ level.faces[i - 1]
                if not ok:
                    witness = ("d.s", i, j)
                    break
            if witness:
                break
        if witness is None:
            # The level n + 1 degeneracies are the largest operators here, so
            # they are not all kept at once: each s_(j+1) is built once per j.
            del above, degens_below
            for j in range(n + 1):
                s_next = degeneracy_matrix(S, M, n + 1, j + 1)
                for i in range(j + 1):
                    lhs = degeneracy_matrix(S, M, n + 1, i) @ level.degeneracies[j]
                    rhs = s_next @ level.degeneracies[i]
                    if lhs != rhs:
                        witness = ("s.s", i, j)
                        break
                if witness:
                    break
    simplicial_ok = witness is None

    # rotation relation
    if n >= 1:
        lhs = level.faces[n] @ level.cyclic
        rhs = cyclic_matrix(S, M, n - 1) @ level.faces[n - 1]
        rotation_ok = lhs == rhs
    else:
        rotation_ok = True

    # cyclicity on the cotensor
    power = tensor_power_comodule(S.comodule, n + 1)
    basis = cotensor(power, M.comodule)
    t = level.cyclic
    tpow = Matrix.identity(dom, level.dim)
    for _ in range(n + 1):
        tpow = t @ tpow
    cyc_witness = None
    for k, vec in enumerate(basis):
        if tpow.apply(vec) != vec:
            cyc_witness = (k,)
            break
    preserved = all(
        linalg.in_span(dom, basis, t.apply(vec)) for vec in basis
    )

    return CyclicIdentityReport(
        level=n,
        dim=level.dim,
        cotensor_dim=len(basis),
        simplicial_ok=simplicial_ok,
        simplicial_witness=witness,
        rotation_ok=rotation_ok,
        cyclicity_ok=cyc_witness is None,
        cyclicity_witness=cyc_witness,
        t_preserves_cotensor=preserved,
    )


def t_complex(S, M, top, max_dim=DEFAULT_MAX_DIM):
    """Chain complex from the alternating sum of all faces at each level."""
    dims = []
    for k in range(top + 1):
        d = _level_dim(S, M, k)
        if d > max_dim:
            raise ResourceBoundError(f"level {k} has dimension {d} > bound {max_dim}")
        dims.append(d)
    diffs = tuple(
        _alternating_sum(S.domain, [face_matrix(S, M, k, i) for i in range(k + 1)], 0)
        for k in range(1, top + 1)
    )
    return ChainComplexData(tuple(dims), diffs)


def _alternating_sum(dom, faces, first):
    """Sum of (-1)^i faces[i - first]: a (partial) bar or face differential."""
    signs = [dom.one if i % 2 == 0 else dom.neg(dom.one) for i in range(first, first + len(faces))]
    return linalg.combination(dom, signs, faces, faces[0].nrows, faces[0].ncols)


# ---------------------------------------------------------------------------
# chain complexes and the bar construction


@dataclass(frozen=True)
class ChainComplexData:
    """Non-negatively graded complex; differentials[k] is b_{k+1}."""

    dims: tuple
    differentials: tuple

    def __post_init__(self):
        if len(self.differentials) != max(0, len(self.dims) - 1):
            raise ShapeError("need one differential per positive degree")
        for k, b in enumerate(self.differentials, start=1):
            if b.nrows != self.dims[k - 1] or b.ncols != self.dims[k]:
                raise ShapeError(f"differential b_{k} has the wrong shape")
        for k in range(len(self.differentials) - 1):
            prod = self.differentials[k] @ self.differentials[k + 1]
            if not prod.is_zero():
                raise InconsistencyError(f"b_{k + 1} b_{k + 2} != 0")

    @property
    def top(self):
        return len(self.dims) - 1

    def differential(self, n):
        return self.differentials[n - 1]

    def homology_dims(self):
        """Dimensions of H_0 .. H_{top-1} (the top degree needs b_{top+1})."""
        out = []
        for k in range(self.top):
            if k == 0:
                kernel = self.dims[0]
            else:
                kernel = len(linalg.kernel_basis(self.differential(k)))
            image = linalg.rank(self.differential(k + 1))
            out.append(kernel - image)
        return tuple(out)


def bar_complex(alg, s_action, top, max_dim=DEFAULT_MAX_DIM):
    """One-sided bar complex of an algebra with module coefficients.

    Degree n is S^(x)n (x) M; the faces d_i for 1 <= i <= n multiply
    slots i, i+1 when i < n and apply the S-action to the coefficients
    when i = n; the differential is the alternating sum from i = 1.
    The b.b = 0 identity is asserted by the complex constructor.
    """
    dom = alg.domain
    ds = alg.dim
    dm = len(s_action[0]) if s_action else 0
    witness = actions_mod.verify_module_over_algebra(alg, s_action)
    if witness is not None:
        raise InconsistencyError(f"S-module law fails at {witness}")
    dims = []
    for n in range(top + 1):
        d = ds ** n * dm
        if d > max_dim:
            raise ResourceBoundError(f"bar degree {n} has dimension {d} > bound {max_dim}")
        dims.append(d)

    act_mat = Matrix.from_cols(
        dom,
        [s_action[s][m] for s in range(ds) for m in range(dm)],
        dm,
    )
    mult = _mult_matrix(alg)

    def face(n, i):
        if i == n:
            return linalg.on_slot(dom, ds ** (n - 1), act_mat, 1)
        return linalg.on_slot(dom, ds ** (i - 1), mult, ds ** (n - 1 - i) * dm)

    diffs = tuple(
        _alternating_sum(dom, [face(n, i) for i in range(1, n + 1)], 1)
        for n in range(1, top + 1)
    )
    return ChainComplexData(tuple(dims), diffs)


# ---------------------------------------------------------------------------
# shift checks


@dataclass(frozen=True)
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

    Needs j bijective; builds the isomorphism id (x) (Morita map)^{-1}
    per degree and records whether it intertwines the multiplication
    faces of the two bar complexes (the coefficient module M^H carries
    no S-action, so its top face is not part of the comparison).
    """
    j = actions_mod.galois_map_j(d)
    if not j.bijective:
        raise PreconditionError(
            "bar shift needs the Morita lemma hypothesis: j : S#H -> End(S) bijective"
        )
    dom = d.domain
    ds = d.algebra.dim
    morita = actions_mod.morita_decomposition(module)
    dm, k = morita.dim_module, morita.dim_fixed
    dims_m = tuple(ds ** n * dm for n in range(top + 1))
    dims_f = tuple(ds ** (n + 1) * k for n in range(top + 1))
    for value in dims_m + dims_f:
        if value > max_dim:
            raise ResourceBoundError(f"bar degree dimension {value} > bound {max_dim}")
    dims_match = dims_m == dims_f

    # rank(I (x) phi) = rank(I) rank(phi), so each degree's iso is
    # bijective exactly when the Morita map is
    iso_flags = [morita.bijective] * (top + 1)

    # informational: does the iso intertwine the multiplication faces
    compat = []
    if morita.bijective:
        phi = linalg.invert(morita.matrix)  # M -> S (x) M^H
        bar_m = bar_complex(d.algebra, module.s_action(), top, max_dim)
        mult = _mult_matrix(d.algebra)
        for n in range(1, top + 1):
            iso_lo = linalg.on_slot(dom, ds ** (n - 1), phi, 1)
            iso_hi = linalg.on_slot(dom, ds ** n, phi, 1)
            # partial bar differential on S^(x)(n+1) (x) M^H: faces 1..n only
            faces = [linalg.on_slot(dom, ds ** (i - 1), mult, ds ** (n - i) * k) for i in range(1, n + 1)]
            compat.append(_alternating_sum(dom, faces, 1) @ iso_hi == iso_lo @ bar_m.differential(n))
    else:
        compat = [False] * top

    return BarShiftReport(
        top=top,
        dims_module=dims_m,
        dims_fixed=dims_f,
        dims_match=dims_match,
        morita_bijective=morita.bijective,
        dim_module=dm,
        dim_fixed=k,
        iso_bijective=tuple(iso_flags),
        differential_compat=tuple(compat),
    )


# comodule-side data -----------------------------------------------------


def galois_map_gamma_comodule(S):
    """gamma for a comodule algebra: S (x) S -> S (x) H, s (x) t -> s t^(0) (x) t^(1)."""
    dom = S.domain
    ds, dh = S.dim, S.hopf.dim
    terms = (
        ((u * dh + h, i * ds + j), dom.mul(c, w))
        for i in range(ds)
        for j in range(ds)
        for t0, h, c in S.comodule.coaction_sparse(j)
        for u, w in S.algebra.mult_sparse[i][t0]
    )
    return actions_mod.GaloisMap.of(Matrix.from_entries(dom, ds * dh, ds * ds, terms))


@dataclass(frozen=True)
class RelativeHopfModuleData:
    """Left S-module in the category of right H-comodules."""

    comod_algebra: ComoduleAlgebraData
    comodule: ComoduleData
    s_action: tuple  # s_action[s][m] image vectors

    def __post_init__(self):
        S = self.comod_algebra
        if self.comodule.hopf != S.hopf:
            raise ShapeError("module and algebra comodules live over different Hopf algebras")
        witness = actions_mod.verify_module_over_algebra(S.algebra, self.s_action)
        if witness is not None:
            raise InconsistencyError(f"S-module law fails at {witness}")
        dom = S.domain
        zero, mul = dom.zero, dom.mul
        comod, h_mult = self.comodule, S.hopf.algebra.mult_sparse
        # rho(s . m) = s^(0) m^(0) (x) s^(1) m^(1)
        for s in range(S.dim):
            for m in range(comod.dim):
                lhs = linalg.sparse_sum(dom, (
                    ((m3, h), mul(c, w))
                    for m2, c in enumerate(self.s_action[s][m]) if c != zero
                    for m3, h, w in comod.coaction_sparse(m2)
                ))
                rhs = linalg.sparse_sum(dom, (
                    ((mi, hh), mul(mul(c1, c2), mul(w1, w2)))
                    for s0, h1, c1 in S.comodule.coaction_sparse(s)
                    for m0, h2, c2 in comod.coaction_sparse(m)
                    for hh, w2 in h_mult[h1][h2]
                    for mi, w1 in enumerate(self.s_action[s0][m0]) if w1 != zero
                ))
                if lhs != rhs:
                    raise AxiomError("relative-hopf-module", (s, m))

    @property
    def dim(self):
        return self.comodule.dim

    @property
    def domain(self):
        return self.comod_algebra.domain


def algebra_as_relative_module(S):
    """S over itself: action by multiplication, coaction of the algebra."""
    action = tuple(
        tuple(S.algebra.mult[s][m] for m in range(S.dim)) for s in range(S.dim)
    )
    return RelativeHopfModuleData(S, S.comodule, action)


def cofree_relative_module(S, extra_dim):
    """S (x) V for a trivial space V; action and coaction on the S factor."""
    dom = S.domain
    ds = S.dim
    dim = ds * extra_dim
    action = []
    for s in range(ds):
        block = []
        for m in range(dim):
            s2, v = divmod(m, extra_dim)
            out = [dom.zero] * dim
            for u, w in S.algebra.mult_sparse[s][s2]:
                out[u * extra_dim + v] = w
            block.append(tuple(out))
        action.append(tuple(block))
    coaction = []
    for m in range(dim):
        s2, v = divmod(m, extra_dim)
        block = [[dom.zero] * S.hopf.dim for _ in range(dim)]
        for s0, h, c in S.comodule.coaction_sparse(s2):
            block[s0 * extra_dim + v][h] = c
        coaction.append(tuple(tuple(r) for r in block))
    comod = ComoduleData(S.hopf, dim, tuple(coaction))
    return RelativeHopfModuleData(S, comod, tuple(action))


@dataclass(frozen=True)
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
    dims_match: bool


def t_shift_check(m, top, max_dim=DEFAULT_MAX_DIM):
    """Fundamental-theorem shift for T-levels of a relative Hopf module.

    Needs gamma bijective for S over R = S^coH; verifies the evaluation
    S (x) M^co -> M is bijective and compares level dimensions of
    T(S, M) against T(S, M^co) shifted by one.
    """
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
    coinv_base = linalg.span_eq(dom, s_coinv, base)

    mco = coinvariants(m.comodule)
    ev_bij = actions_mod.evaluation_map(dom, m.s_action, m.dim, mco).bijective

    ds = S.dim
    dims_m = tuple(ds ** (n + 1) * m.dim for n in range(top + 1))
    dims_c = tuple(ds ** (n + 2) * len(mco) for n in range(top + 1))
    for value in dims_m + dims_c:
        if value > max_dim:
            raise ResourceBoundError(f"T-level dimension {value} > bound {max_dim}")
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
        dims_match=dims_m == dims_c,
    )
