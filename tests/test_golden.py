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
# products and negatives of integral Q values take an int path and small
# integral values are shared, so these commands build 0, 27, 20 and 12.
# Dropping the int path of `mul` builds 128, 145, 198 and 155; of `add`
# 20, 39, 38 and 26; of `sub` 0, 42, 36 and 22; of `neg` 2, 32, 34 and
# 19: each budget lies below every count that moves, so dropping any of
# the four fails some budget.  `galois` built 195 while it verified its
# group algebra and solved its integral, and `bar-shift` 1252 while it
# built every degree's bar differentials and isomorphisms: their budgets
# fail if that work comes back.
FRACTION_BUDGETS = [
    pytest.param(["integrals", "hopf_sweedler.json"], 1, id="integrals"),
    pytest.param(["galois", "ext_gaussian.json"], 30, id="galois"),
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json",
                  "--levels", "3"], 30, id="bar-shift"),
    pytest.param(["homology", "mod_regular_sweedler.json"], 16, id="homology"),
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
