"""Golden CLI reports: every command's stdout and exit code, byte for byte.

The stored files under ``fixtures/golden/`` pin the exact report bytes,
so a change to the library that must not change any output (a
refactor, a faster kernel) can be checked against them directly.
Commands run in process with the fixture directory as the working
directory and relative paths, so the ``input`` field of each report does
not depend on where the repository lives.

Regenerate the files, only when a change is meant to alter a report,
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import collections
import contextlib
import io
import json
import os
import pathlib
from fractions import Fraction

import pytest
from test_acceptance import CLI_COMMANDS

from hopfgal import actions, cli, hopf, linalg
from hopfgal.linalg import ZZ, Matrix

FIXDIR = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXDIR / "golden"

COMMANDS = CLI_COMMANDS + [
    # non-AYD coefficients: cyclicity fails with a warning, exit 0
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_swap_f3.json", "--levels", "1"],
    # j not bijective: the bar-shift precondition fails, exit 1
    ["bar-shift", "ext_trivial.json", "--module", "smashmod_regular.json", "--levels", "2"],
    # integrals of a 9-dimensional algebra, neither commutative nor cocommutative
    ["integrals", "hopf_taft3_f7.json"],
    ["integrals", "hopf_taft3_dual_f7.json"],
    # every Hopf axiom, the antipode identity included, on the same two algebras
    ["verify", "hopf_taft3_f7.json"],
    ["verify", "hopf_taft3_dual_f7.json"],
    # the dual of a corrupted explicit algebra: the inner algebra's failure, exit 1
    ["verify", "hopf_sweedler_bad_antipode_dual.json"],
    # the shape of the benchmark's cyclic op: levels 0-5, each level built once
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json", "--levels", "5"],
    # levels past the dense oracle's level 4, and fixtures other than the benchmark's:
    # not strongly graded, non-AYD coefficients, and the Klein-four grading
    ["cyclic", "comodalg_graded_f3_nsg.json", "--module", "mod_kc2_ayd_f3.json", "--levels", "6"],
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_swap_f3.json", "--levels", "6"],
    ["cyclic", "comodalg_klein_f3.json", "--module", "mod_kc2_swap_f3.json", "--levels", "3"],
    # the lattice commands with the other order, the other fixture and each candidate source
    ["homology", "lat_zi_qc2.json", "--order", "associated"],
    ["homology", "lat_zzeta3_qc2.json", "--order", "group-ring"],
    ["homology", "lat_zzeta3_qc2.json", "--order", "associated"],
    ["assoc-order", "lat_zzeta3_qc2.json", "--candidates"],
    ["assoc-order", "lat_zi_qc2.json", "--order", "group-ring", "--candidates"],
    ["assoc-order", "lat_zi_qc2.json", "--candidates", "1,0;0,1;1,1"],
]
CASES = [(command, form) for command in COMMANDS for form in ("json", "txt")]


def case_name(command, form):
    parts = [a.replace(".json", "").lstrip("-") for a in command]
    name = "_".join(parts)
    for char in "-,;":
        name = name.replace(char, "_")
    return name + "." + form


def run_in_fixdir(command, form):
    argv = list(command) + (["--json"] if form == "json" else [])
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXDIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def load_exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize(
    "command,form", CASES, ids=[case_name(c, f) for c, f in CASES]
)
def test_report_matches_golden(command, form):
    name = case_name(command, form)
    code, stdout = run_in_fixdir(command, form)
    assert code == load_exit_codes()[name]
    assert stdout == (GOLDEN / name).read_text(encoding="utf-8")


def test_library_builds_dense_matrices_over_z_only(monkeypatch):
    # dense Matrix is the integer type: every one the commands build is over Z
    domains = []
    init, make = Matrix.__init__, Matrix._make.__func__

    def counted_init(self, domain, rows):
        domains.append(domain)
        init(self, domain, rows)

    def counted_make(cls, domain, rows, ncols=None):
        domains.append(domain)
        return make(cls, domain, rows, ncols)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    monkeypatch.setattr(Matrix, "_make", classmethod(counted_make))
    for command in COMMANDS:
        run_in_fixdir(command, "json")
    # the lattice commands build integer matrices, so the wrappers saw some
    assert domains
    assert [d for d in domains if d is not ZZ] == []


def test_no_integral_space_is_solved_twice(monkeypatch):
    # the left integral space of each Hopf algebra object is solved at most
    # once and kept on the object, and the right integral, the antipode image
    # of the left one, solves no fixed-point system; the objects stay
    # referenced, so no identity is reused
    solves, right_systems, in_right, right_reads = [], [], [], []
    solve, fixed, right = hopf._integral_space, hopf.fixed_points, hopf.right_integrals

    def counted(h):
        solves.append(h)
        return solve(h)

    def counted_fixed(h, action):
        if in_right:
            right_systems.append(action)
        return fixed(h, action)

    def counted_right(h):
        hopf.left_integrals(h)
        right_reads.append(h)
        in_right.append(h)
        try:
            return right(h)
        finally:
            in_right.pop()

    monkeypatch.setattr(hopf, "_integral_space", counted)
    monkeypatch.setattr(hopf, "fixed_points", counted_fixed)
    monkeypatch.setattr(hopf, "right_integrals", counted_right)
    for command in COMMANDS:
        run_in_fixdir(command, "json")
    counts = collections.Counter(id(h) for h in solves)
    # builtins hold their integrals by theorem; `tame ext_trunc.json`, whose
    # Hopf algebra is explicit, still solves
    assert counts, "the golden commands solve integral spaces"
    assert max(counts.values()) == 1
    assert right_reads, "the golden commands read right integrals"
    assert right_systems == []


# Fraction objects one in-process run may build.  Sums, differences,
# products and negatives of integral Q values take an int path, small
# integral values are shared, integer literals parse without a Fraction,
# lattice coordinates come by substitution on ints, the lattice commands'
# rational cross-check reads only the tame facts, a semisimple H is not
# powered for localness, and elimination stores a one-entry row in a fresh
# column as its unit row without an inverse or a scaled copy, so these
# commands build 0, 10, 8, 0, 5, 96 and 3, in order (0, 14, 10, 0, 9, 100
# and 5 while every row was inverted and scaled; 17, 22, 113 and 12 for
# `galois` and the lattice commands while the cross-check built the full
# extension report and QC_2 was powered).  Dropping the int path of `mul`
# builds 128, 111, 184, 142, 99, 189 and 154; of `add` 20, 20, 26, 14, 26,
# 122 and 42; of `sub` 0, 25, 24, 10, 8, 100 and 9; of `neg` 2, 14, 22, 7,
# 5, 100 and 7.  While every row was inverted and scaled, reading literals
# through `domain.parse` built 0, 24, 20, 12, 35, 126 and 28, and on the
# lattice commands alone, substituting in Fraction arithmetic built 144,
# 325 and 158, clearing the generators' denominators by Fraction products
# 23, 126 and 19, and unshared generators 23, 128 and 31.  Each budget lies
# below every count that moves, so dropping any of these paths fails some
# budget.  `galois`
# built 195 while it verified its group algebra and solved its integral,
# and `bar-shift` 1252 while it built every degree's bar differentials and
# isomorphisms: their budgets fail if that work comes back.
FRACTION_BUDGETS = [
    pytest.param(["integrals", "hopf_sweedler.json"], 1, id="integrals"),
    pytest.param(["galois", "ext_gaussian.json"], 10, id="galois"),
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json",
                  "--levels", "3"], 8, id="bar-shift"),
    pytest.param(["homology", "mod_regular_sweedler.json"], 5, id="homology"),
    pytest.param(["homology", "lat_zi_qc2.json"], 5, id="homology-lattice"),
    pytest.param(["assoc-order", "lat_zi_qc2.json", "--candidates"], 96,
                 id="assoc-order-zi"),
    pytest.param(["assoc-order", "lat_zzeta3_qc2.json", "--order", "group-ring",
                  "--candidates"], 3, id="assoc-order-zzeta3"),
]


@pytest.mark.parametrize("command,budget", FRACTION_BUDGETS)
def test_integral_rationals_build_few_fractions(monkeypatch, command, budget):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    code, _ = run_in_fixdir(command, "json")
    assert code == 0
    assert len(built) <= budget


# Kernels these commands no longer call: bar_shift_check takes differential
# compatibility from the Morita lemma instead of inverting the Morita map
# and building every degree, and lattice coordinates come by substitution
# down the Hermite rows instead of a solve per vector.  bar-shift builds
# and eliminates j once, for the Morita decomposition and its precondition.
KERNELS_NOT_CALLED = [
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json",
                  "--levels", "3"], "invert", id="bar-shift"),
    pytest.param(["assoc-order", "lat_zi_qc2.json", "--candidates"], "solve", id="assoc-order-zi"),
    pytest.param(["assoc-order", "lat_zzeta3_qc2.json", "--order", "group-ring", "--candidates"],
                 "solve", id="assoc-order-zzeta3"),
]


@pytest.mark.parametrize("command,kernel", KERNELS_NOT_CALLED)
def test_command_does_not_call_the_kernel(monkeypatch, command, kernel):
    calls = []
    original = getattr(linalg, kernel)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, kernel, counted)
    j_builds = []
    galois_map_j = actions.galois_map_j
    monkeypatch.setattr(actions, "galois_map_j", lambda d: j_builds.append(d) or galois_map_j(d))
    code, _ = run_in_fixdir(command, "json")
    assert code == 0
    assert len(calls) == 0
    if command[0] == "bar-shift":
        assert len(j_builds) == 1


# Extension reports the lattice commands do not build: their rational
# cross-check reads the four tame facts, not a full `classify_extension`
# report with its Galois maps.
REPORTS_NOT_BUILT = [
    pytest.param(["homology", "lat_zi_qc2.json"], id="homology-lattice"),
    pytest.param(["assoc-order", "lat_zi_qc2.json", "--candidates"], id="assoc-order-zi"),
    pytest.param(["assoc-order", "lat_zzeta3_qc2.json", "--order", "group-ring", "--candidates"],
                 id="assoc-order-zzeta3"),
]


@pytest.mark.parametrize("command", REPORTS_NOT_BUILT)
def test_lattice_command_builds_no_extension_report(monkeypatch, command):
    calls = []
    for name in ("classify_extension", "galois_map_j", "galois_map_gamma"):
        original = getattr(actions, name)
        monkeypatch.setattr(actions, name, lambda d, name=name, original=original: (
            calls.append(name) or original(d)))
    code, _ = run_in_fixdir(command, "json")
    assert code == 0
    assert calls == []


# `homology` reports no rational cross-check, so the lattice report builds
# its `rational_tame` only on a read: the module-algebra law is still decided
# (and refused with exit 1) at the same point, but S^H and I.S are solved only
# by `assoc-order`, whose report shows the verdict.
@pytest.mark.parametrize("command,solves", [
    pytest.param(["homology", "lat_zi_qc2.json"], 0, id="homology"),
    pytest.param(["assoc-order", "lat_zi_qc2.json"], 1, id="assoc-order"),
])
def test_the_rational_tame_facts_are_solved_only_where_reported(monkeypatch, command, solves):
    calls = []
    solve = actions.hopfological_homology_module
    monkeypatch.setattr(actions, "hopfological_homology_module",
                        lambda h, action: calls.append(h) or solve(h, action))
    code, _ = run_in_fixdir(command, "json")
    assert code == 0
    assert len(calls) == solves


# A semisimple H is local only in dimension 1, so `is_local` powers the
# counit kernel of a non-semisimple H only: `galois ext_gaussian.json`
# (H = QC_2) builds no power, `tame ext_trunc.json` (H = F_2[d]/(d^2)) does.
@pytest.mark.parametrize("command,powered", [
    pytest.param(["galois", "ext_gaussian.json"], False, id="semisimple"),
    pytest.param(["tame", "ext_trunc.json"], True, id="not-semisimple"),
])
def test_only_a_non_semisimple_hopf_algebra_is_powered_for_localness(monkeypatch, command,
                                                                     powered):
    inside, powers = [], []
    is_local, echelon_basis = hopf.is_local, linalg.echelon_basis

    def counted_local(h):
        inside.append(h)
        try:
            return is_local(h)
        finally:
            inside.pop()

    def counted_echelon(*args):
        if inside:
            powers.append(args)
        return echelon_basis(*args)

    monkeypatch.setattr(hopf, "is_local", counted_local)
    monkeypatch.setattr(linalg, "echelon_basis", counted_echelon)
    code, stdout = run_in_fixdir(command, "json")
    assert code == 0
    assert '"hopf_local"' in stdout
    assert bool(powers) == powered


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for command, form in CASES:
        name = case_name(command, form)
        codes[name], stdout = run_in_fixdir(command, form)
        (GOLDEN / name).write_text(stdout, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
