import functools
import json
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hopfgal import actions, files, hopf, lattices, linalg, zoo
from hopfgal.errors import (
    DEFAULT_MAX_DIM,
    AxiomError,
    FormatError,
    PreconditionError,
    ShapeError,
)
from hopfgal.linalg import QQ, ColumnMap
from test_sweep import load_sweep

import oracles


@functools.lru_cache(maxsize=None)
def zi():
    return zoo.gaussian_integers_lattice()


@functools.lru_cache(maxsize=None)
def zzeta3():
    return zoo.eisenstein_integers_lattice()


def half():
    return Fraction(1, 2)


# lattice basics ------------------------------------------------------------------


def test_canonical_basis_is_representation_independent():
    a = lattices.IntegerLattice.from_generators(2, [(1, 0), (half(), half())])
    b = lattices.IntegerLattice.from_generators(2, [(half(), half()), (0, 1)])
    assert a == b
    assert a.contains((1, 0)) and a.contains((half(), half()))
    assert not a.contains((half(), 0))


def test_membership_via_coordinates():
    lat = lattices.IntegerLattice.from_generators(2, [(2, 0), (0, 3)])
    assert lat.contains((4, 3))
    assert not lat.contains((1, 0))
    assert lat.coords((4, 3)) == (Fraction(2), Fraction(1))


# the lattice against the dense Q-Matrix reference: rational generator sets of
# up to five vectors in Q^1..Q^4, with denominators up to 6

FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def generator_sets(draw, max_size=5):
    n = draw(st.integers(1, 4))
    vector = st.lists(FRACTIONS, min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(vector, max_size=max_size))


def combine(u, v, k):
    return tuple(a + k * b for a, b in zip(u, v))


@given(generator_sets(), st.data())
def test_lattice_matches_reference(case, data):
    n, vectors = case
    ours = lattices.IntegerLattice.from_generators(n, vectors)
    ref = oracles.ReferenceLattice.from_generators(n, vectors)
    assert ours.rank == ref.rank
    assert ours.generators() == ref.generators()
    gens = ref.generators()
    probes = list(vectors) + gens + [tuple(x / 2 for x in g) for g in gens]
    probes += data.draw(st.lists(st.lists(FRACTIONS, min_size=n, max_size=n), max_size=3))
    assert all(QQ.normalize(v) is v for g in ours.generators() for v in g)
    for vec in probes:
        assert_matches_reference(ours, ref, vec)


def reference_integer_coords(ref, vec):
    x = ref.coords(vec)
    if x is None or any(Fraction(v).denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


def assert_matches_reference(ours, ref, vec):
    x = ours.coords(vec)
    assert x == ref.coords(vec), vec
    assert x is None or all(QQ.normalize(v) is v for v in x), vec
    ints = ours.integer_coords(vec)
    assert ints == reference_integer_coords(ref, vec), vec
    assert ints is None or all(type(v) is int for v in ints), vec
    assert ours.contains(vec) == ref.contains(vec), vec


# lattices whose substitution must grow its denominator: scale d > 1 and
# Hermite pivots in 2..7 prime to d, probed at rational combinations of the
# generators whose coefficients have denominators 2, 3, 5 or 7, so some pivot
# does not divide the residual's entry; a probe off the span when the rank
# is short

@st.composite
def growing_denominator_cases(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([2, 3, 5, 6]))
    pivot_cols = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                      unique=True)))
    vectors = []
    for c in pivot_cols:
        pivot = draw(st.sampled_from([p for p in range(2, 8) if math.gcd(p, d) == 1]))
        tail = draw(st.lists(st.integers(-9, 9), min_size=n - c - 1, max_size=n - c - 1))
        vectors.append(tuple(Fraction(x, d) for x in [0] * c + [pivot] + tail))
    coefficient = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 7]))
    probes = []
    for _ in range(draw(st.integers(1, 3))):
        cs = draw(st.lists(coefficient, min_size=len(vectors), max_size=len(vectors)))
        probes.append(tuple(sum(k * v[i] for k, v in zip(cs, vectors)) for i in range(n)))
    probes.append(draw(st.lists(FRACTIONS, min_size=n, max_size=n).map(tuple)))
    probes.append(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(tuple)))
    return n, vectors, probes


@given(growing_denominator_cases())
@example((2, [(Fraction(3, 2), Fraction(1, 2)), (0, Fraction(5, 2))],
          [(1, 0), (Fraction(3, 4), Fraction(13, 12))]))
def test_coords_grow_one_denominator_where_a_pivot_does_not_divide(case):
    n, vectors, probes = case
    ours = lattices.IntegerLattice.from_generators(n, vectors)
    ref = oracles.ReferenceLattice.from_generators(n, vectors)
    assert ours.scale > 1 and all(row[next(j for j, a in enumerate(row) if a)] > 1
                                  for row in ours.rows)
    assert ours.generators() == ref.generators()
    assert all(QQ.normalize(v) is v for g in ours.generators() for v in g)
    for vec in probes + ref.generators():
        assert_matches_reference(ours, ref, vec)


@given(generator_sets(), st.data())
def test_coords_match_a_linear_solve(case, data):
    # substitution down the Hermite rows agrees with solving against the
    # generators: rank-deficient and zero lattices, and vectors outside the span
    n, vectors = case
    if data.draw(st.booleans()):
        vectors = vectors + [tuple(2 * x for x in v) for v in vectors[:1]] + [(0,) * n]
    lat = lattices.IntegerLattice.from_generators(n, vectors)
    gens = ColumnMap.from_cols(QQ, n, lat.generators())
    probes = [tuple(sum(g[i] for g in lat.generators()) for i in range(n)), (0,) * n]
    probes += [tuple(v) for v in vectors]
    probes += data.draw(st.lists(st.lists(FRACTIONS, min_size=n, max_size=n), max_size=4))
    probes += data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=2))
    for vec in probes:
        x = lat.coords(vec)
        assert x == linalg.solve(gens, vec), vec
        assert x is None or all(QQ.normalize(v) is v for v in x)
    with pytest.raises(ShapeError):
        lat.coords((0,) * (n + 1))


def test_coords_of_the_zero_lattice():
    lat = lattices.IntegerLattice.from_generators(3, [])
    assert lat.rank == 0
    assert lat.coords((0, 0, 0)) == ()
    assert lat.coords((0, Fraction(1, 2), 0)) is None


@st.composite
def regenerated(draw, vectors):
    """Another generating set drawn from `vectors`, and whether each step
    keeps the lattice: permutations and integer combinations do; a rational
    multiple of one vector or an extra vector with a new denominator
    usually does not."""
    vectors = list(vectors)
    keeps = True
    for _ in range(draw(st.integers(1, 3))):
        step = draw(st.sampled_from(["permute", "add", "append", "rescale", "extra"]))
        if step == "permute":
            vectors = draw(st.permutations(vectors))
        elif step == "add" and len(vectors) >= 2:
            i, j = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=2, max_size=2,
                                 unique=True))
            vectors[i] = combine(vectors[i], vectors[j], draw(st.integers(-3, 3)))
        elif step == "append" and vectors:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                                   max_size=len(vectors)))
            total = tuple(0 for _ in vectors[0])
            for k, v in zip(coeffs, vectors):
                total = combine(total, v, k)
            vectors.append(total)
        elif step == "rescale" and vectors:
            i = draw(st.integers(0, len(vectors) - 1))
            q = draw(FRACTIONS.filter(bool))
            vectors[i] = tuple(q * x for x in vectors[i])
            keeps = keeps and q in (1, -1)
        elif step == "extra" and vectors:
            d = draw(st.sampled_from([2, 3, 5]))
            vectors.append(tuple(x / d for x in draw(st.sampled_from(vectors))))
            keeps = False
    return vectors, keeps


@given(generator_sets(), st.data())
def test_lattice_equality_matches_reference(case, data):
    n, vectors = case
    others, keeps = data.draw(regenerated(vectors))
    a = lattices.IntegerLattice.from_generators(n, vectors)
    b = lattices.IntegerLattice.from_generators(n, others)
    expected = (oracles.ReferenceLattice.from_generators(n, vectors)
                == oracles.ReferenceLattice.from_generators(n, others))
    assert (a == b) == expected
    if keeps:
        assert a == b
    if a == b:
        assert hash(a) == hash(b)
        assert all(a.contains(g) for g in b.generators()) and all(b.contains(g) for g in a.generators())


def test_scale_is_the_least_common_denominator():
    # one lattice from two generating sets, with a redundant third generator
    a = lattices.IntegerLattice.from_generators(2, [(half(), 0), (Fraction(1, 4), 1)])
    b = lattices.IntegerLattice.from_generators(2, [(half(), 0), (Fraction(-1, 4), -1), (1, 2)])
    assert a == b and a.scale == 4
    assert a.rows == ((1, 4), (0, 8))
    assert lattices.IntegerLattice.from_generators(2, [(2, 0), (0, 4)]).scale == 1
    assert lattices.standard_lattice(3) == lattices.IntegerLattice.from_generators(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


# associated orders ----------------------------------------------------------------


def test_associated_order_gaussian_hand_oracle():
    # h = a + b s integral on Z[i] forces a + b and a - b integral; the
    # Hermite form of the condition rows gives the dual basis by hand
    order = lattices.associated_order(zoo.qc2(), zi())
    expected = lattices.IntegerLattice.from_generators(
        2, [(1, 0), (half(), half())]
    )
    assert order.lattice == expected


def test_associated_order_eisenstein_is_group_ring():
    order = lattices.associated_order(zoo.qc2(), zzeta3())
    assert order.lattice == lattices.standard_lattice(2)


def test_associated_order_contains_group_ring():
    # the action is integral on both lattices, so ZC2 sits inside
    group_ring = lattices.group_ring_order(zoo.qc2()).lattice
    for module in (zi(), zzeta3()):
        order = lattices.associated_order(zoo.qc2(), module)
        assert all(order.lattice.contains(g) for g in group_ring.generators())


def test_associated_order_trivial_hopf():
    h = hopf.group_algebra(QQ, [[0]])
    module = lattices.LatticeModuleData(
        hopf=h,
        lattice=lattices.standard_lattice(1),
        action=(ColumnMap.identity(QQ, 1),),
        unit=(1,),
    )
    order = lattices.associated_order(h, module)
    assert order.lattice.generators() == [(Fraction(1),)]


def regular_c3_module(basis):
    """QC3 acting on Q^3 by its regular representation, on the lattice
    spanned by `basis`."""
    h = hopf.group_algebra(QQ, zoo.cyclic_table(3))
    return lattices.LatticeModuleData(
        hopf=h,
        lattice=lattices.IntegerLattice.from_generators(3, basis),
        action=tuple(ColumnMap(QQ, 3, block) for block in h.algebra.mult),
        unit=(1, 0, 0),
    )


def conjugation_module(basis):
    """QC2 acting on Q(i) = Q^2 by complex conjugation, on the lattice
    spanned by `basis`."""
    return lattices.LatticeModuleData(
        hopf=zoo.qc2(),
        lattice=lattices.IntegerLattice.from_generators(2, basis),
        action=zi().action,
        unit=(1, 0),
    )


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@given(
    st.one_of(
        st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=2, max_size=2).map(
            lambda rows: (conjugation_module, rows)),
        st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3).map(
            lambda rows: (regular_c3_module, rows)),
    )
)
def test_associated_orders_are_unital_and_closed(case):
    # {h : h.L <= L} is a unital subalgebra once the module law holds
    build, rows = case
    assume(oracles.leibniz_det(rows) != 0)
    module = build(rows)
    order = lattices.associated_order(module.hopf, module)
    assert oracles.order_closure_witness(order) is None
    if lattices.is_hopf_order(order).is_hopf_order:
        assert_integral_generator(order)


def assert_integral_generator(order):
    """The lattice integral generator is a nonzero multiple of the fully
    stacked left integral, and lies in the order."""
    generator, _ = lattices.lattice_integrals(order)
    (integral,) = oracles.dense_integrals(order.hopf, "left")
    k = next(i for i, x in enumerate(integral) if x != 0)
    ratio = Fraction(generator[k]) / integral[k]
    assert ratio != 0 and generator == tuple(ratio * x for x in integral)
    assert order.lattice.contains(generator)


@pytest.mark.parametrize("module", [zi, zzeta3], ids=["zi", "zzeta3"])
def test_fixture_associated_orders_are_unital_and_closed(module):
    order = lattices.associated_order(zoo.qc2(), module())
    assert oracles.order_closure_witness(order) is None
    assert_integral_generator(order)
    assert_integral_generator(lattices.group_ring_order(zoo.qc2()))


# Hopf order checks ----------------------------------------------------------------


def test_half_trace_idempotent_is_hopf_order():
    order = lattices.associated_order(zoo.qc2(), zi())
    report = lattices.is_hopf_order(order)
    assert report.is_hopf_order
    # hand check: Delta((1+s)/2) = 1(x)1 + 2e(x)e - e(x)1 - 1(x)e stays inside
    e = (half(), half())
    h = zoo.qc2()
    image = h.comult_vec(e)
    assert image == {(0, 0): half(), (1, 1): half()}


def test_group_ring_is_hopf_order():
    assert lattices.is_hopf_order(lattices.group_ring_order(zoo.qc2())).is_hopf_order


def test_half_sigma_is_not_multiplicatively_closed():
    bad = lattices.OrderData(
        zoo.qc2(),
        lattices.IntegerLattice.from_generators(
            2, [(1, 0), (0, half())]
        ),
    )
    report = lattices.is_hopf_order(bad)
    assert not report.mult_closed
    assert not report.is_hopf_order


# integral lattices ----------------------------------------------------------------


def test_lattice_integral_group_ring():
    gen, lat = lattices.lattice_integrals(lattices.group_ring_order(zoo.qc2()))
    assert gen == (Fraction(1), Fraction(1))
    assert lat.rank == 1


def test_lattice_integral_for_half_trace_order():
    order = lattices.associated_order(zoo.qc2(), zi())
    gen, _ = lattices.lattice_integrals(order)
    assert gen == (half(), half())


def test_lattice_integral_trivial_order():
    h = hopf.group_algebra(QQ, [[0]])
    gen, _ = lattices.lattice_integrals(lattices.group_ring_order(h))
    assert gen == (Fraction(1),)


# tameness over Z ------------------------------------------------------------------


def test_group_ring_on_gaussian_integers_wild_at_two():
    # trace(a + bi) = 2a, so the quotient is Z/2, by hand
    report = lattices.tame_check_integral(lattices.group_ring_order(zoo.qc2()), zi())
    assert not report.tame
    assert report.invariant_factors == (2,)
    assert report.obstructed_primes == (2,)
    assert report.fixed_is_base and report.rank_equal and report.faithful
    assert report.rational_tame is True


def test_group_ring_on_eisenstein_integers_tame():
    # trace(a + b zeta) = 2a - b hits 1, by hand
    report = lattices.tame_check_integral(lattices.group_ring_order(zoo.qc2()), zzeta3())
    assert report.tame
    assert report.invariant_factors == ()
    assert report.rational_tame is True


def test_half_trace_order_on_gaussian_integers_tame():
    order = lattices.associated_order(zoo.qc2(), zi())
    report = lattices.tame_check_integral(order, zi())
    assert report.tame
    assert report.invariant_factors == ()


def test_tame_iff_no_invariant_factors_on_instances():
    cases = [
        (lattices.group_ring_order(zoo.qc2()), zi()),
        (lattices.group_ring_order(zoo.qc2()), zzeta3()),
        (lattices.associated_order(zoo.qc2(), zi()), zi()),
        (lattices.associated_order(zoo.qc2(), zzeta3()), zzeta3()),
    ]
    for order, module in cases:
        report = lattices.tame_check_integral(order, module)
        hypotheses = report.fixed_is_base and report.rank_equal and report.faithful
        assert hypotheses
        trivial_quotient = not report.invariant_factors and report.quotient_free_rank == 0
        assert report.tame == trivial_quotient


def test_image_always_in_fixed_lattice():
    for order, module in [
        (lattices.group_ring_order(zoo.qc2()), zi()),
        (lattices.group_ring_order(zoo.qc2()), zzeta3()),
    ]:
        # the report takes J.S inside S^A from the theory and does not check it
        generator = lattices.tame_check_integral(order, module).integral_generator
        assert oracles.integral_image_in_fixed_lattice(module, generator)


# the rational cross-check ----------------------------------------------------------
#
# `rational_tame` reads the four tame facts of the module algebra over Q that
# the lattice's `algebra` section and action make, cheapest first, and stops
# at the first false one: it must be the `tame` verdict of the full field-case
# report, and the conjunction of the facts as the dense oracles decide them.
# Given faithfulness, S^H = Q.1 and I.S = Q.1 hold together (I.S is a nonzero
# subspace of S^H, since the integral acts nonzero, and 1 in I.S puts all of
# S^H in it), so the documents below fail the facts one at a time except the
# last two, which fail together.

FIXDIR = pathlib.Path(__file__).parent / "fixtures"


def square_zero_doc(n, m):
    """Z^(1+m) inside S = Q.1 + V with V^2 = 0, dim V = m, QC_n (n even)
    acting on V through g^k -> (-1)^k."""
    dim = 1 + m
    return {
        "field": {"kind": "Z"},
        "hopf": {"name": "group_algebra", "table": zoo.cyclic_table(n)},
        "ambient_dim": dim,
        "basis": [[str(int(i == j)) for j in range(dim)] for i in range(dim)],
        "action": [[[str(int(i == j) * (-1 if i and k % 2 else 1)) for j in range(dim)]
                    for i in range(dim)] for k in range(n)],
        "unit": [str(int(i == 0)) for i in range(dim)],
        "algebra": {"dim": dim, "mult": [[0, j, j, "1"] for j in range(dim)]
                    + [[j, 0, j, "1"] for j in range(1, dim)],
                    "unit": [str(int(i == 0)) for i in range(dim)]},
    }


def permutation_doc(table, subgroups):
    """Z^X inside Q^X, the functions on the G-set X that is the disjoint
    union of the coset spaces G/K of `subgroups`, with kG permuting X."""
    points = list(dict.fromkeys((i, frozenset(table[g][k] for k in sub))
                                for i, sub in enumerate(subgroups) for g in range(len(table))))
    index = {point: p for p, point in enumerate(points)}
    n = len(points)

    def rows(a):
        image = [index[i, frozenset(table[a][x] for x in coset)] for i, coset in points]
        return [[str(int(image[q] == p)) for q in range(n)] for p in range(n)]

    return {
        "field": {"kind": "Z"},
        "hopf": {"name": "group_algebra", "table": table},
        "ambient_dim": n,
        "basis": [[str(int(i == j)) for j in range(n)] for i in range(n)],
        "action": [rows(a) for a in range(len(table))],
        "unit": ["1"] * n,
        "algebra": {"dim": n, "mult": [[p, p, p, "1"] for p in range(n)], "unit": ["1"] * n},
    }


def s3_on_six_points():
    """S_3 on X = S_3/C_2 + S_3/C_3 + S_3/S_3: faithful, as X carries the
    trivial, sign and two-dimensional representations, with three orbits."""
    table = zoo.GROUP_TABLES["S3"]
    group = range(len(table))
    involution = next(g for g in group if g and table[g][g] == 0)
    rotations = [g for g in group if table[g][table[g][g]] == 0]
    return permutation_doc(table, [(0, involution), rotations, group])


def fixture_doc(name):
    return json.loads((FIXDIR / name).read_text())


# name -> (document, (rank equal, faithful, S^H = Q.1, I.S = Q.1))
ONE_FACT_AT_A_TIME = {
    "all-hold-zi": (lambda: fixture_doc("lat_zi_qc2.json"), (True, True, True, True)),
    "all-hold-zzeta3": (lambda: fixture_doc("lat_zzeta3_qc2.json"), (True, True, True, True)),
    "rank": (lambda: square_zero_doc(2, 2), (False, True, True, True)),
    "faithful": (lambda: square_zero_doc(4, 3), (True, False, True, True)),
    "invariants-and-trace": (s3_on_six_points, (True, True, False, False)),
}


def group_ring_docs():
    return load_sweep().group_ring_lattice_specs(range(2, 9))


def field_case(module):
    """The module algebra over Q of the lattice's algebra section and action."""
    entries = [(a, v, u, c) for a, m in enumerate(module.action)
               for v, col in enumerate(m.cols) for u, c in col]
    return actions.module_algebra(module.hopf, module.algebra, entries)


def dense_tame_facts(d):
    """The four tame facts of a module algebra over a field, by dense oracles."""
    dom, n = d.domain, d.algebra.dim
    mats = oracles.dense_action_matrices(dom, d.action, n)
    integral = oracles.dense_integrals(d.hopf, "left")[0]
    image = oracles.combination(dom, integral, mats, n, n).cols()
    base = oracles.dense_echelon_basis(dom, [d.algebra.unit])
    return (n == d.hopf.dim, oracles.dense_faithful(d),
            oracles.dense_fixed_points(d.hopf, mats) == base,
            oracles.dense_echelon_basis(dom, image) == base)


def cross_check(doc, monkeypatch):
    """The rational_tame of the group-ring order on a lattice document, the
    field-case report and its facts, and the number of homology solves the
    cross-check made."""
    module, _ = files.load_lattice(doc, DEFAULT_MAX_DIM)
    solves = []
    solve = actions.hopfological_homology_module
    monkeypatch.setattr(actions, "hopfological_homology_module",
                        lambda h, action: solves.append(h) or solve(h, action))
    report = lattices.tame_check_integral(lattices.group_ring_order(module.hopf), module)
    rational_tame = report.rational_tame  # solved on this first read
    monkeypatch.undo()
    d = field_case(module)
    return rational_tame, actions.classify_extension(d), dense_tame_facts(d), len(solves)


@pytest.mark.parametrize("name", sorted(ONE_FACT_AT_A_TIME))
def test_rational_tame_fails_each_fact_as_the_field_case_does(name, monkeypatch):
    build, expected = ONE_FACT_AT_A_TIME[name]
    rational_tame, report, facts, solves = cross_check(build(), monkeypatch)
    assert facts == expected
    assert (report.rank_equal, report.faithful, report.invariants_are_base,
            report.integral_surjective) == facts
    assert rational_tame is report.tame is all(facts)
    # rank equality and faithfulness are read first: S^H and I.S are solved
    # only when both hold
    assert solves == (1 if facts[0] and facts[1] else 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_rational_tame_of_a_cyclic_group_ring_is_the_field_case_verdict(n, monkeypatch):
    # Z[C_n] inside Q[C_n], C_2 acting by t -> t^-1: trivially for n = 2,
    # where S is not faithful, and with dim S > dim H past it
    rational_tame, report, facts, solves = cross_check(
        group_ring_docs()[f"zcyclic_n{n}.json"], monkeypatch)
    assert facts == ((True, False, False, False) if n == 2 else (False, True, False, False))
    assert rational_tame is report.tame is False
    assert solves == 0


@pytest.mark.parametrize("dim,error", [(1, FormatError), (3, AxiomError)])
def test_an_algebra_of_another_dimension_is_refused_as_the_field_case_refuses_it(dim, error):
    # the load decides the module law on Q^2 only; an algebra of dimension 1
    # cannot hold the action's entries, and one of dimension 3 breaks the law
    doc = fixture_doc("lat_zi_qc2.json")
    doc["algebra"] = {"dim": dim, "mult": [[0, j, j, "1"] for j in range(dim)]
                      + [[j, 0, j, "1"] for j in range(1, dim)],
                      "unit": ["1"] + ["0"] * (dim - 1)}
    module, _ = files.load_lattice(doc, DEFAULT_MAX_DIM)
    with pytest.raises(error) as expected:
        field_case(module)
    with pytest.raises(error) as raised:
        lattices.tame_check_integral(lattices.group_ring_order(module.hopf), module)
    assert str(raised.value) == str(expected.value)


# freeness certificates ------------------------------------------------------------


def test_free_generator_one_plus_i():
    order = lattices.associated_order(zoo.qc2(), zi())
    tame = lattices.tame_check_integral(order, zi())
    result = lattices.free_rank_one_generator(order, zi(), tame, [(1, 0), (0, 1), (1, 1)])
    assert result.generator == (Fraction(1), Fraction(1))
    assert abs(result.determinant) == 1
    # the certificate matrix columns are 1 . z and e . z in Z[i]-coordinates
    assert abs(oracles.leibniz_det(result.certificate.rows)) == 1


def test_free_generator_zeta3():
    order = lattices.group_ring_order(zoo.qc2())
    tame = lattices.tame_check_integral(order, zzeta3())
    result = lattices.free_rank_one_generator(order, zzeta3(), tame, [(0, 1)])
    assert result.generator == (Fraction(0), Fraction(1))


def test_order_must_act_integrally():
    # (1+s)/2 sends zeta3 to -1/2, outside Z[zeta3]
    order = lattices.associated_order(zoo.qc2(), zi())
    with pytest.raises(PreconditionError):
        lattices.tame_check_integral(order, zzeta3())


def test_unfaithful_action_has_no_associated_order_lattice():
    trivial = lattices.LatticeModuleData(
        hopf=zoo.qc2(),
        lattice=lattices.standard_lattice(2),
        action=(ColumnMap.identity(QQ, 2), ColumnMap.identity(QQ, 2)),
        unit=(1, 0),
    )
    with pytest.raises(PreconditionError):
        lattices.associated_order(zoo.qc2(), trivial)


def test_free_generator_requires_tame():
    order = lattices.group_ring_order(zoo.qc2())
    tame = lattices.tame_check_integral(order, zi())
    with pytest.raises(PreconditionError):
        lattices.free_rank_one_generator(order, zi(), tame, [(1, 1)])


def test_free_generator_inconclusive_absence():
    order = lattices.associated_order(zoo.qc2(), zi())
    tame = lattices.tame_check_integral(order, zi())
    result = lattices.free_rank_one_generator(order, zi(), tame, [(1, 0)])
    assert result.generator is None


@functools.lru_cache(maxsize=None)
def order_hopf_algebras():
    """QC_2, QC_3, Q[C_2 x C_2] and Sweedler's algebra over Q."""
    return (zoo.qc2(), hopf.group_algebra(QQ, zoo.cyclic_table(3)),
            hopf.group_algebra(QQ, zoo.product_table(zoo.cyclic_table(2), zoo.cyclic_table(2))),
            hopf.sweedler(QQ))


@st.composite
def full_rank_orders(draw):
    """A full-rank lattice in one of `order_hopf_algebras`: n random vectors
    with small denominators, often joined by the stored basis so that the
    lattice holds the group ring (or Z-span of the basis)."""
    h = draw(st.sampled_from(order_hopf_algebras()))
    n = h.dim
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(oracles.leibniz_det(rows) != 0)
    if draw(st.booleans()):
        rows += [linalg.unit_vec(QQ, n, i) for i in range(n)]
    return lattices.OrderData(h, lattices.IntegerLattice.from_generators(n, rows))


@given(full_rank_orders())
def test_hopf_order_flags_match_the_oracles(order):
    report = lattices.is_hopf_order(order)
    flags = (report.contains_unit, report.mult_closed, report.comult_stable,
             report.counit_integral, report.antipode_stable, report.witness)
    assert flags == oracles.hopf_order_flags(order)
