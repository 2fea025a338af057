"""The one-pass sparse contractions against their generator forms.

`cocyclic.tensor_comodule`, `cocyclic.cyclic_power`,
`cocyclic.cyclic_matrix`, `hopf._square_sum`,
`hopf._coaction_multiplicative` and `hopf._product` each sum their terms
in one dict loop.  Each must give exactly what summing every term with
the old `linalg.sparse_sum` gave (the `oracles.collected_*` forms): the
same keys, the same values and, for the dicts, the same key order.

The draws are random sparse legs over Q, F_3 and F_5 with small indices,
so that terms meet at one key, plus one leg and its negative, so that
some keys sum to zero; and the comodules and comodule algebras of the
fixtures, whose coaction laws hold.  The law-holding cases are also
rebased by random elementary moves, so that products have several terms
that cancel.

Mutation check: a kernel that keeps a key whose terms sum to zero (its
final zero filter dropped) must fail.  Each such mutation, made one at a
time on a copy, fails
- `test_cocyclic_kernels_match_their_generator_forms` for the three
  `cocyclic` kernels;
- `test_hopf_products_match_their_generator_forms` for `_product`;
- `test_rebased_coaction_algebras_keep_their_law` for
  `_coaction_multiplicative`;
- both of the last two for `_square_sum`.
"""

import functools
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import cocyclic, files, hopf, zoo
from hopfgal.errors import HopfgalError
from hopfgal.linalg import GF, QQ

import oracles
from conftest import FIXTURES

DOMAINS = [QQ, GF(3), GF(5)]
coeff = st.sampled_from([1, -1, 2, -2, 3])


def legs(draw, dom, width, extra):
    """A short list of (indices..., c) entries with indices below `width`,
    plus a leg and its negative when `extra` is drawn."""
    index = st.tuples(*(st.integers(0, w - 1) for w in width))
    out = [(*i, dom.normalize(c)) for i, c in draw(st.lists(st.tuples(index, coeff), max_size=3))]
    if extra:
        i, c = draw(index), dom.normalize(draw(coeff))
        out += [(*i, c), (*i, dom.neg(c))]
    return out


def table(draw, dom, rows, cols, dim):
    """rows x cols cells of sparse (index, c) pairs below dim."""
    return [[legs(draw, dom, (dim,), draw(st.booleans())) for _ in range(cols)]
            for _ in range(rows)]


@st.composite
def cocyclic_cases(draw):
    """X, C and M as plain namespaces with random sparse data over H of dim dh."""
    dom = draw(st.sampled_from(DOMAINS))
    dh, dx, dc, dm = (draw(st.integers(1, 3)) for _ in range(4))
    h = types.SimpleNamespace(dim=dh, algebra=types.SimpleNamespace(
        mult=table(draw, dom, dh, dh, dh)))

    def comodule(dim):
        return types.SimpleNamespace(hopf=h, domain=dom, dim=dim, coaction=[
            legs(draw, dom, (dim, dh), draw(st.booleans())) for _ in range(dim)])

    x, c = comodule(dx), comodule(dc)
    m = types.SimpleNamespace(dim=dm, action=table(draw, dom, dh, dm, dm))
    return x, c, m, legs(draw, dom, (dx * dm,), draw(st.booleans()))


@functools.cache
def fixture_pairs():
    """(S, M) for each comodule-algebra fixture and each AYD module fixture
    over its Hopf algebra."""
    out = []
    for algebra in sorted(FIXTURES.glob("comodalg_*.json")):
        try:
            S = files.load_extension_file(algebra, 5000)["comodule_algebra"]
        except HopfgalError:
            continue
        for module in sorted(FIXTURES.glob("mod_*.json")):
            try:
                out.append((S, files.load_ayd_module(S.hopf, module, 5000)))
            except HopfgalError:
                continue
    return out


def test_fixture_pairs_are_found():
    assert len(fixture_pairs()) >= 3


@given(cocyclic_cases())
@settings(max_examples=60)
def test_cocyclic_kernels_match_their_generator_forms(case):
    x, c, m, col = case
    assert (cocyclic.tensor_comodule(x, c).coaction
            == oracles.collected_tensor_coaction(x, c))
    assert cocyclic.cyclic_power(x, m, col) == oracles.collected_cyclic_power(x, m, col)
    S = types.SimpleNamespace(domain=x.domain, dim=x.dim, comodule=x)
    for n in range(3):
        assert cocyclic.cyclic_matrix(S, m, n) == oracles.collected_cyclic_matrix(S, m, n), n


def test_cocyclic_kernels_on_the_fixtures():
    for S, M in fixture_pairs():
        for k in range(1, 4):
            power = oracles.tensor_power_comodule(S.comodule, k)
            assert (cocyclic.tensor_comodule(power, M.comodule).coaction
                    == oracles.collected_tensor_coaction(power, M.comodule))
            for i in range(power.dim * M.dim):
                col = ((i, S.domain.one),)
                assert (cocyclic.cyclic_power(power, M, col)
                        == oracles.collected_cyclic_power(power, M, col))
            assert (cocyclic.cyclic_matrix(S, M, k - 1)
                    == oracles.collected_cyclic_matrix(S, M, k - 1))


@st.composite
def product_cases(draw):
    dom = draw(st.sampled_from(DOMAINS))
    da, dh = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mult, h_mult = table(draw, dom, da, da, da), table(draw, dom, dh, dh, dh)
    u, v = (legs(draw, dom, (da, dh), draw(st.booleans())) for _ in range(2))
    return dom, mult, h_mult, u, v


@given(product_cases())
@settings(max_examples=60)
def test_hopf_products_match_their_generator_forms(case):
    dom, mult, h_mult, u, v = case
    square = hopf._square_sum(dom, mult, h_mult, u, v)
    assert list(square.items()) == list(
        oracles.collected_square_sum(dom, mult, h_mult, u, v).items())
    # the first slots alone, as vectors of A
    u1, v1 = [(a, c) for a, _, c in u], [(a, c) for a, _, c in v]
    assert list(hopf._product(dom, mult, u1, v1).items()) == list(
        oracles.collected_product(dom, mult, u1, v1).items())


def rebased(dom, mult, coaction, moves):
    """mult and coaction of an algebra A in the basis with f_j = e_j + t e_i
    applied for each move (i, j, t) in turn; H's basis is kept."""
    n, add, mul = len(mult), dom.add, dom.mul
    p = [[dom.one if r == c else dom.zero for c in range(n)] for r in range(n)]
    q = [row[:] for row in p]  # the inverse of p
    for i, j, t in moves:
        for r in range(n):
            p[r][j] = add(p[r][j], mul(t, p[r][i]))
        q[i] = [dom.sub(a, mul(t, b)) for a, b in zip(q[i], q[j])]

    def coords(vec):
        return [oracles._sum(dom, (mul(a, b) for a, b in zip(row, vec))) for row in q]

    new_mult = []
    for a in range(n):
        row = []
        for b in range(n):
            vec = [dom.zero] * n
            for x in range(n):
                for y in range(n):
                    for z, w in mult[x][y]:
                        vec[z] = add(vec[z], mul(mul(p[x][a], p[y][b]), w))
            row.append(tuple((z, c) for z, c in enumerate(coords(vec)) if c))
        new_mult.append(tuple(row))
    new_coaction = []
    for a in range(n):
        blocks = {}
        for x in range(n):
            for u, h, c in coaction[x]:
                vec = blocks.setdefault(h, [dom.zero] * n)
                vec[u] = add(vec[u], mul(p[x][a], c))
        new_coaction.append(tuple(sorted(
            (u, h, c) for h, vec in blocks.items() for u, c in enumerate(coords(vec)) if c)))
    return new_mult, new_coaction


@functools.cache
def coaction_algebras():
    """(domain, mult, coaction, h_mult) of comodule algebras whose law holds:
    Hopf algebras coacting on themselves by Delta, and the fixtures."""
    out = [(h.domain, h.algebra.mult, h.comult, h.algebra.mult)
           for h in (hopf.sweedler(QQ), hopf.taft(GF(7), 3, 2), zoo.fpc2(3))]
    for S in {id(S): S for S, _ in fixture_pairs()}.values():
        out.append((S.domain, S.algebra.mult, S.comodule.coaction, S.hopf.algebra.mult))
    return out


@st.composite
def rebased_cases(draw):
    dom, mult, coaction, h_mult = draw(st.sampled_from(coaction_algebras()))
    n = len(mult)
    if n == 1:
        return dom, mult, coaction, h_mult
    move = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), coeff).filter(
        lambda m: m[0] != m[1])
    moves = [(i, j, dom.normalize(t)) for i, j, t in draw(st.lists(move, max_size=4))]
    return (dom, *rebased(dom, mult, coaction, moves), h_mult)


@given(rebased_cases())
@settings(max_examples=40)
def test_rebased_coaction_algebras_keep_their_law(case):
    dom, mult, coaction, h_mult = case
    n = len(mult)
    for i in range(n):
        for j in range(n):
            assert hopf._coaction_multiplicative(dom, mult, coaction, h_mult, i, j), (i, j)
            assert oracles.collected_coaction_multiplicative(dom, mult, coaction, h_mult, i, j)
            assert list(hopf._square_sum(dom, mult, h_mult, coaction[i], coaction[j]).items()) \
                == list(oracles.collected_square_sum(
                    dom, mult, h_mult, coaction[i], coaction[j]).items())
