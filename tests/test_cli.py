import collections
import functools
import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfgal import cli, cocyclic, files, hopf, linalg
from hopfgal.errors import FormatError, HopfgalError

PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = PKG_SRC + os.pathsep + full_env.get("PYTHONPATH", "")
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfgal.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc


def fx(fixtures, name):
    return str(fixtures / name)


# exit codes -----------------------------------------------------------------


def test_verify_ok(fixtures):
    proc = run_cli(["verify", fx(fixtures, "hopf_sweedler.json")])
    assert proc.returncode == 0
    assert "all axioms pass" in proc.stdout


def test_verify_corrupted_antipode(fixtures):
    proc = run_cli(["verify", fx(fixtures, "hopf_sweedler_bad_antipode.json")])
    assert proc.returncode == 1
    assert "antipode: FAIL" in proc.stdout
    assert "witness [2]" in proc.stdout


def test_verify_malformed_json(fixtures):
    proc = run_cli(["verify", fx(fixtures, "malformed.json")])
    assert proc.returncode == 2


def test_verify_algebra_level_corruption(fixtures):
    # 1 . x = 0 breaks the algebra axioms at construction; the verify
    # command reports the first failing check with its witness
    proc = run_cli(["verify", fx(fixtures, "hopf_bad_unit.json")])
    assert proc.returncode == 1
    assert "associativity: FAIL" in proc.stdout
    assert "witness [0, 1, 1]" in proc.stdout


def test_missing_file_is_input_error(fixtures):
    proc = run_cli(["verify", fx(fixtures, "does_not_exist.json")])
    assert proc.returncode == 2


def test_integrals_reports(fixtures):
    proc = run_cli(["integrals", fx(fixtures, "hopf_qc2.json")])
    assert proc.returncode == 0
    assert "left integral: 1 + s" in proc.stdout
    assert "semisimple: true" in proc.stdout
    proc = run_cli(["integrals", fx(fixtures, "hopf_sweedler.json")])
    assert "left integral: x + gx" in proc.stdout
    assert "semisimple: false" in proc.stdout
    proc = run_cli(["integrals", fx(fixtures, "hopf_f2c2.json")])
    assert "left integral: 1 + s" in proc.stdout
    assert "semisimple: false" in proc.stdout


def test_expectation_exit_codes(fixtures):
    assert run_cli(["tame", fx(fixtures, "ext_f4.json"), "--expect", "tame"]).returncode == 0
    assert run_cli(["tame", fx(fixtures, "ext_trivial.json"), "--expect", "tame"]).returncode == 1
    assert (
        run_cli(["galois", fx(fixtures, "ext_gaussian.json"), "--expect", "hopf-galois"]).returncode
        == 0
    )
    assert (
        run_cli(["galois", fx(fixtures, "ext_trivial.json"), "--expect", "neither"]).returncode
        == 0
    )


def test_homology_module_and_lattice(fixtures):
    proc = run_cli(["homology", fx(fixtures, "mod_trivial_f2c2.json")])
    assert "H_0 dimension: 1" in proc.stdout
    proc = run_cli(["homology", fx(fixtures, "mod_regular_sweedler.json")])
    assert "H_0 dimension: 0" in proc.stdout
    proc = run_cli(["homology", fx(fixtures, "lat_zi_qc2.json")])
    assert "invariant factors: [2]" in proc.stdout


def test_cyclic_pass_and_warning(fixtures):
    proc = run_cli(
        [
            "cyclic",
            fx(fixtures, "comodalg_graded_f3.json"),
            "--module",
            fx(fixtures, "mod_kc2_ayd_f3.json"),
            "--levels",
            "3",
        ]
    )
    assert proc.returncode == 0
    assert proc.stdout.count("cyclicity pass") == 4
    proc = run_cli(
        [
            "cyclic",
            fx(fixtures, "comodalg_graded_f3.json"),
            "--module",
            fx(fixtures, "mod_kc2_swap_f3.json"),
            "--levels",
            "1",
        ]
    )
    assert proc.returncode == 0  # informational failure for non-AYD coefficients
    assert "cyclicity FAIL" in proc.stdout
    assert "warning" in proc.stdout


def test_cyclic_resource_bound(fixtures):
    proc = run_cli(
        [
            "cyclic",
            fx(fixtures, "comodalg_graded_f3.json"),
            "--module",
            fx(fixtures, "mod_kc2_ayd_f3.json"),
            "--levels",
            "12",
        ]
    )
    assert proc.returncode == 3


def test_cyclic_resource_bound_four_dimensional(fixtures):
    # level 9 on a 4-dimensional S overflows the default bound before
    # any matrices are built
    proc = run_cli(
        [
            "cyclic",
            fx(fixtures, "comodalg_klein_f3.json"),
            "--module",
            fx(fixtures, "mod_kc2_ayd_f3.json"),
            "--levels",
            "9",
        ]
    )
    assert proc.returncode == 3
    proc = run_cli(
        [
            "cyclic",
            fx(fixtures, "comodalg_klein_f3.json"),
            "--module",
            fx(fixtures, "mod_kc2_ayd_f3.json"),
            "--levels",
            "1",
        ]
    )
    assert proc.returncode == 0


def test_cyclic_bound_covers_the_level_above(fixtures, capsys):
    # the level 4 identities build the last face of level 5: 2^7 = 128 > 64
    args = ["cyclic", fx(fixtures, "comodalg_graded_f3.json"),
            "--module", fx(fixtures, "mod_kc2_ayd_f3.json"), "--max-dim", "64"]
    assert cli.main(args + ["--levels", "4"]) == 3
    err = capsys.readouterr().err
    assert "level 5 has dimension 128 > bound 64 (the level 4 identities build it)" in err
    assert cli.main(args + ["--levels", "3"]) == 0


# A cyclic command frees what it builds by reference counting alone: a
# reference cycle waits for the garbage collector, which a faster command
# runs less often, so its memory would outlive the command.
def test_a_cyclic_command_leaves_no_reference_cycles(fixtures, capsys):
    args = ["cyclic", fx(fixtures, "comodalg_graded_f3.json"),
            "--module", fx(fixtures, "mod_kc2_ayd_f3.json"), "--levels", "5"]
    assert cli.main(args) == 0
    gc.collect()
    gc.disable()
    try:
        assert cli.main(args) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_cyclic_builds_each_operator_once_per_command(fixtures, monkeypatch, capsys):
    builds = collections.Counter()
    build = cocyclic.cyclic_matrix

    def counted(S, M, n):
        builds[("cyclic_matrix", n)] += 1
        return build(S, M, n)
    monkeypatch.setattr(cocyclic, "cyclic_matrix", counted)
    args = ["cyclic", fx(fixtures, "comodalg_graded_f3.json"),
            "--module", fx(fixtures, "mod_kc2_ayd_f3.json"), "--levels", "5"]
    assert cli.main(args) == 0
    first = collections.Counter(builds)
    # the faces and degeneracies come from the lemma: one t_n per level, and
    # nothing of level 6
    assert first == {("cyclic_matrix", n): 1 for n in range(6)}
    # no operator outlives a command: a second one builds them all again
    builds.clear()
    assert cli.main(args) == 0
    assert builds == first


def test_cyclic_builds_each_tensor_power_once_per_command(fixtures, monkeypatch, capsys):
    built = []
    build = cocyclic.tensor_comodule
    monkeypatch.setattr(cocyclic, "tensor_comodule", lambda x, c: built.append(x.dim) or build(x, c))
    args = ["cyclic", fx(fixtures, "comodalg_graded_f3.json"),
            "--module", fx(fixtures, "mod_kc2_ayd_f3.json"), "--levels", "5"]
    assert cli.main(args) == 0
    # S^(x)2 .. S^(x)6 for levels 1..5, each from the power below it
    assert built == [2, 4, 8, 16, 32]
    # the powers live on the command's S: a second command builds its own
    built.clear()
    assert cli.main(args) == 0
    assert built == [2, 4, 8, 16, 32]
    capsys.readouterr()


def test_bar_shift_refusal_names_the_degree(fixtures, capsys):
    args = ["bar-shift", fx(fixtures, "ext_gaussian.json"),
            "--module", fx(fixtures, "smashmod_sum.json"), "--levels", "3", "--max-dim", "16"]
    assert cli.main(args) == 3
    assert "bar degree 2 of B(S, M) has dimension 24 > bound 16" in capsys.readouterr().err


# The bound stops `bar-shift` at the first degree past it, so the number of
# levels asked for costs nothing past that degree.
def test_bar_shift_bound_applies_before_the_degrees_are_built(fixtures, capsys):
    args = ["bar-shift", fx(fixtures, "ext_gaussian.json"),
            "--module", fx(fixtures, "smashmod_sum.json"), "--levels"]

    def refusal(levels):
        assert cli.main(args + [str(levels)]) == 3
        return [line for line in capsys.readouterr().err.splitlines()
                if not line.startswith("# elapsed")]

    expected = refusal(20)
    assert "bar degree 10 of B(S, M) has dimension 6144 > bound 5000" in expected[0]
    assert refusal(10 ** 8) == expected


# With a one-dimensional S every cyclic level has the dimension of M, so only
# the number of levels can bound the command; it is refused before any level.
def test_cyclic_refuses_more_levels_than_the_bound_before_any_is_built(tmp_path, capsys,
                                                                      monkeypatch):
    c2 = {"name": "group_algebra", "table": [[0, 1], [1, 0]], "labels": ["e", "s"]}
    point = {"field": {"kind": "Fp", "p": 3}, "hopf": c2, "coaction": [[0, 0, 0, "1"]],
             "algebra": {"dim": 1, "basis": ["1"], "mult": [[0, 0, 0, "1"]], "unit": ["1"]}}
    trivial = {"module": {"dim": 1, "action": [[0, 0, 0, "1"], [1, 0, 0, "1"]],
                          "coaction": [[0, 0, 0, "1"]]}}
    (tmp_path / "point.json").write_text(json.dumps(point))
    (tmp_path / "trivial.json").write_text(json.dumps(trivial))
    args = ["cyclic", str(tmp_path / "point.json"), "--module", str(tmp_path / "trivial.json")]
    assert cli.main(args + ["--levels", "3", "--max-dim", "4"]) == 0
    capsys.readouterr()
    levels = []
    check = cocyclic.check_cyclic_identities
    monkeypatch.setattr(cocyclic, "check_cyclic_identities",
                        lambda S, M, n, X: levels.append(n) or check(S, M, n, X))
    assert cli.main(args + ["--levels", "4", "--max-dim", "4"]) == 3
    assert "--levels 4 builds 5 levels > bound 4" in capsys.readouterr().err
    start = time.perf_counter()
    assert cli.main(args + ["--levels", str(10 ** 8), "--max-dim", "5000"]) == 3
    assert time.perf_counter() - start < 1
    assert "--levels 100000000 builds 100000001 levels > bound 5000" in capsys.readouterr().err
    assert levels == []


# The same holds for bar-shift: with a one-dimensional S every bar degree has
# the dimension of M, and the number of levels is refused before any degree.
def test_bar_shift_refuses_more_levels_than_the_bound_before_any_is_built(tmp_path, capsys,
                                                                          monkeypatch):
    point = {"field": {"kind": "Fp", "p": 3}, "hopf": {"name": "group_algebra", "table": [[0]]},
             "action": [[0, 0, 0, "1"]],
             "algebra": {"dim": 1, "basis": ["1"], "mult": [[0, 0, 0, "1"]], "unit": ["1"]}}
    (tmp_path / "point.json").write_text(json.dumps(point))
    (tmp_path / "regular.json").write_text(json.dumps({"smash_module": "regular"}))
    args = ["bar-shift", str(tmp_path / "point.json"), "--module", str(tmp_path / "regular.json")]
    assert cli.main(args + ["--levels", "3", "--max-dim", "4"]) == 0
    capsys.readouterr()
    built = []
    monkeypatch.setattr(cocyclic, "BarShiftReport", lambda **kw: built.append(kw))
    assert cli.main(args + ["--levels", "4", "--max-dim", "4"]) == 3
    assert "--levels 4 builds 5 levels > bound 4" in capsys.readouterr().err
    start = time.perf_counter()
    assert cli.main(args + ["--levels", str(10 ** 8), "--max-dim", "5000"]) == 3
    assert time.perf_counter() - start < 1
    assert "--levels 100000000 builds 100000001 levels > bound 5000" in capsys.readouterr().err
    assert built == []


def test_env_var_dimension_bound(fixtures):
    proc = run_cli(
        [
            "cyclic",
            fx(fixtures, "comodalg_graded_f3.json"),
            "--module",
            fx(fixtures, "mod_kc2_ayd_f3.json"),
            "--levels",
            "2",
        ],
        env={"HOPFGAL_MAX_DIM": "8"},
    )
    assert proc.returncode == 3


def test_non_integer_env_var_bound_is_input_error(fixtures, capsys, monkeypatch):
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "abc")
    assert cli.main(["verify", fx(fixtures, "hopf_qc2.json")]) == 2
    assert "HOPFGAL_MAX_DIM must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_non_positive_dimension_bound_is_input_error(fixtures, capsys, monkeypatch, source,
                                                     value):
    args = ["homology", fx(fixtures, "mod_trivial_f2c2.json")]
    if source == "flag":
        args += ["--max-dim", value]
        name = "--max-dim"
    else:
        monkeypatch.setenv("HOPFGAL_MAX_DIM", value)
        name = "HOPFGAL_MAX_DIM"
    assert cli.main(args) == 2
    assert f"input error: {name} must be at least 1, not {value}" in capsys.readouterr().err


def test_bar_shift_pass_and_precondition(fixtures):
    proc = run_cli(
        [
            "bar-shift",
            fx(fixtures, "ext_gaussian.json"),
            "--module",
            fx(fixtures, "smashmod_regular.json"),
            "--levels",
            "4",
        ]
    )
    assert proc.returncode == 0
    assert "dim B_n(S, M): [4, 8, 16, 32, 64]" in proc.stdout
    proc = run_cli(
        [
            "bar-shift",
            fx(fixtures, "ext_trivial.json"),
            "--module",
            fx(fixtures, "smashmod_regular.json"),
            "--levels",
            "2",
        ]
    )
    assert proc.returncode == 1
    assert "j : S#H -> End(S) bijective" in proc.stdout


def test_assoc_order_pipeline(fixtures):
    proc = run_cli(["assoc-order", fx(fixtures, "lat_zi_qc2.json"), "--candidates"])
    assert proc.returncode == 0
    assert "1/2*1 + 1/2*s" in proc.stdout
    assert "hopf order: true" in proc.stdout
    assert "tame: true" in proc.stdout
    assert "free generator: ['1', '1']" in proc.stdout
    proc = run_cli(["assoc-order", fx(fixtures, "lat_zi_qc2.json"), "--order", "group-ring"])
    assert "invariant factors: [2]" in proc.stdout
    proc = run_cli(
        ["assoc-order", fx(fixtures, "lat_zzeta3_qc2.json"), "--order", "group-ring"]
    )
    assert "tame: true" in proc.stdout


def test_assoc_order_inline_candidates(fixtures):
    proc = run_cli(
        ["assoc-order", fx(fixtures, "lat_zi_qc2.json"), "--candidates", "1,1"]
    )
    assert proc.returncode == 0
    assert "free generator: ['1', '1']" in proc.stdout


# determinism and round trips ---------------------------------------------------


ALL_COMMANDS = [
    ["verify", "hopf_sweedler.json"],
    ["verify", "hopf_qc2.json"],
    ["integrals", "hopf_sweedler.json"],
    ["tame", "ext_f4.json"],
    ["galois", "ext_gaussian.json"],
    ["homology", "mod_trivial_f2c2.json"],
    ["homology", "lat_zi_qc2.json"],
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json", "--levels", "2"],
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_swap_f3.json", "--levels", "1"],
    ["bar-shift", "ext_gaussian.json", "--module", "smashmod_algebra.json", "--levels", "3"],
    ["assoc-order", "lat_zi_qc2.json", "--candidates"],
]


def materialize(fixtures, command):
    return [a if not a.endswith(".json") else fx(fixtures, a) for a in command]


@pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: "-".join(c[:2]))
def test_json_reports_are_byte_identical_across_runs(fixtures, command):
    args = materialize(fixtures, command) + ["--json"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")
    json.loads(first.stdout)  # canonical JSON parses


@pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: "-".join(c[:2]))
def test_human_text_round_trips_through_json(fixtures, command):
    args = materialize(fixtures, command)
    human = run_cli(args).stdout
    machine = run_cli(args + ["--json"]).stdout
    assert cli.render_human(json.loads(machine)) == human


# tensor indices are bounded per axis -------------------------------------------

F3 = {"kind": "Fp", "p": 3}
KC2 = {"name": "group_algebra", "table": [[0, 1], [1, 0]]}
POINT = {"dim": 1, "mult": [[0, 0, 0, "1"]], "unit": ["1"]}
TRIVIAL_ACTION = [[0, 0, 0, "1"], [1, 0, 0, "1"]]
TRIVIAL_COACTION = [[0, 0, 0, "1"]]
GAUSSIAN_S_ACTION = [
    [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 0, "1"], [1, 1, 1, "-1"],
    [2, 0, 1, "1"], [2, 1, 0, "-1"], [3, 0, 1, "1"], [3, 1, 0, "1"],
]


def _fixture_doc(name):
    with open(os.path.join(os.path.dirname(__file__), "fixtures", name)) as handle:
        return json.load(handle)


def _with_extra_action_entry(name, entry):
    doc = _fixture_doc(name)
    doc["module"]["action"].append(entry)
    return doc


# Each case adds one entry whose index is below the larger dimension of the
# tensor but out of range for its own axis (dim S = 1 < dim H = 2, or
# dim M = 2 < dim S#H = 4); every such entry must be refused, not dropped.
OUT_OF_RANGE_CASES = [
    pytest.param(
        {"in.json": _with_extra_action_entry("mod_trivial_f2c2.json", [0, 1, 0, "1"])},
        ["homology", "in.json"],
        id="module-action",
    ),
    pytest.param(
        {
            "in.json": {"field": F3, "hopf": KC2, "algebra": POINT, "coaction": TRIVIAL_COACTION},
            "m.json": {
                "dim": 1,
                "action": TRIVIAL_ACTION + [[0, 1, 0, "1"]],
                "coaction": TRIVIAL_COACTION,
            },
        },
        ["cyclic", "in.json", "--module", "m.json", "--levels", "1"],
        id="ayd-action",
    ),
    pytest.param(
        {
            "in.json": {"field": F3, "hopf": KC2, "algebra": POINT, "coaction": TRIVIAL_COACTION},
            "m.json": {
                "dim": 1,
                "action": TRIVIAL_ACTION,
                "coaction": TRIVIAL_COACTION + [[0, 1, 0, "1"]],
            },
        },
        ["cyclic", "in.json", "--module", "m.json", "--levels", "1"],
        id="ayd-coaction",
    ),
    pytest.param(
        {"m.json": {"smash_module": {"dim": 2, "action": GAUSSIAN_S_ACTION + [[0, 3, 0, "1"]]}}},
        ["bar-shift", "ext_gaussian.json", "--module", "m.json", "--levels", "1"],
        id="smash-module-action",
    ),
    pytest.param(
        {
            "in.json": {
                "field": F3,
                "hopf": KC2,
                "algebra": POINT,
                "action": TRIVIAL_ACTION + [[0, 0, 1, "1"]],
            }
        },
        ["tame", "in.json"],
        id="extension-action",
    ),
    pytest.param(
        {
            "in.json": {
                "field": F3,
                "hopf": KC2,
                "algebra": POINT,
                "coaction": TRIVIAL_COACTION + [[0, 1, 0, "1"]],
            },
            "m.json": {"dim": 1, "action": TRIVIAL_ACTION, "coaction": TRIVIAL_COACTION},
        },
        ["cyclic", "in.json", "--module", "m.json", "--levels", "1"],
        id="extension-coaction",
    ),
]


@pytest.mark.parametrize("docs,command", OUT_OF_RANGE_CASES)
def test_out_of_range_tensor_index_is_input_error(tmp_path, fixtures, docs, command):
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    args = [
        str(tmp_path / a) if a in docs else fx(fixtures, a) if a.endswith(".json") else a
        for a in command
    ]
    proc = run_cli(args)
    assert proc.returncode == 2, proc.stdout
    assert "index out of range" in proc.stderr


# Every loader reads one top-level JSON document; a valid JSON value that is
# not an object is an input error, never a traceback.
NON_OBJECT_COMMANDS = [
    pytest.param(["verify", "doc.json"], id="verify"),
    pytest.param(["integrals", "doc.json"], id="integrals"),
    pytest.param(["tame", "doc.json"], id="tame"),
    pytest.param(["galois", "doc.json"], id="galois"),
    pytest.param(["homology", "doc.json"], id="homology"),
    pytest.param(["assoc-order", "doc.json"], id="assoc-order"),
    pytest.param(["cyclic", "doc.json", "--module", "mod_kc2_ayd_f3.json"], id="cyclic"),
    pytest.param(["cyclic", "comodalg_graded_f3.json", "--module", "doc.json"], id="cyclic-module"),
    pytest.param(["bar-shift", "doc.json", "--module", "smashmod_sum.json"], id="bar-shift"),
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "doc.json"], id="bar-shift-module"),
]


@pytest.mark.parametrize("text,message", [
    pytest.param("[1]", "must hold a JSON object", id="array"),
    pytest.param("5", "must hold a JSON object", id="number"),
    # past the interpreter's recursion limit the JSON decoder raises RecursionError
    pytest.param("[" * 100000 + "]" * 100000, "nested too deeply", id="nested-100000-deep"),
])
@pytest.mark.parametrize("command", NON_OBJECT_COMMANDS)
def test_non_object_document_is_input_error(tmp_path, fixtures, capsys, command, text, message):
    (tmp_path / "doc.json").write_text(text)
    args = [
        str(tmp_path / a) if a == "doc.json" else fx(fixtures, a) if a.endswith(".json") else a
        for a in command
    ]
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err


# A nested section must be a JSON object, an integer field a JSON integer, a
# dimension at least 1 and a scalar an element of the field: anything else is
# an input error, never a traceback, a silent truncation or an empty verdict.
# `path` names the field of `base` that is set to `value` (nothing when empty).
TAFT_F5 = {"field": {"kind": "Fp", "p": 5}, "builtin": {"name": "taft", "n": 2, "q": "4"}}
ONE_DIM_HOPF = {
    "field": {"kind": "Q"}, "dim": 1, "mult": [[0, 0, 0, "1"]], "unit": ["1"],
    "comult": [[0, 0, 0, "1"]], "counit": ["1"], "antipode": [[0, 0, "1"]],
}
AYD_CYCLIC = ["cyclic", "comodalg_graded_f3.json", "--module", "doc.json", "--levels", "1"]
EXT_F4_NO_ACTION = {**_fixture_doc("ext_f4.json"), "action": []}
OBJECT, INTEGER = "must hold a JSON object", "must be a JSON integer"
NESTED_CASES = [
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra",), 5, OBJECT,
                 id="algebra-number"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra",), [1], OBJECT,
                 id="algebra-array"),
    pytest.param(AYD_CYCLIC, "mod_kc2_ayd_f3.json", ("module",), 5, OBJECT,
                 id="ayd-module-number"),
    pytest.param(["homology", "doc.json"], "mod_trivial_f2c2.json", ("module",), 5, OBJECT,
                 id="module-number"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra", "dim"), "abc", INTEGER,
                 id="dim-string"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra", "dim"), 2.7, INTEGER,
                 id="dim-float"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("field", "p"), "2", INTEGER,
                 id="p-string"),
    pytest.param(["homology", "doc.json"], "mod_trivial_f2c2.json", ("module", "dim"), True,
                 INTEGER, id="module-dim-bool"),
    pytest.param(AYD_CYCLIC, "mod_kc2_ayd_f3.json", ("module", "dim"), "2", INTEGER,
                 id="ayd-dim-string"),
    pytest.param(["verify", "doc.json"], TAFT_F5, ("builtin", "n"), 2.0, INTEGER,
                 id="taft-n-float"),
    pytest.param(["homology", "doc.json"], "lat_zi_qc2.json", ("ambient_dim",), 2.0, INTEGER,
                 id="ambient-dim-float"),
    pytest.param(["homology", "doc.json"], "mod_trivial_f2c2.json", ("module",),
                 {"dim": -1, "action": []}, "must be at least 1", id="module-dim-negative"),
    pytest.param(["tame", "doc.json"], EXT_F4_NO_ACTION, ("algebra",),
                 {"dim": 0, "mult": [], "unit": []}, "must be at least 1", id="algebra-dim-zero"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra", "mult"), [[0, 0, 0, "abc"]],
                 "scalar 'abc' is not an element of F2", id="scalar-unparsable"),
    pytest.param(AYD_CYCLIC, "mod_kc2_ayd_f3.json", ("module", "action"), [[0, 0, 0, "1/3"]],
                 "scalar '1/3' is not an element of F3", id="scalar-no-value-in-field"),
    # bool is a subclass of int: `true` must not read as the scalar 1
    pytest.param(["galois", "doc.json"], "ext_gaussian.json", ("algebra", "mult", 0, 3), True,
                 "boolean scalar True rejected", id="scalar-bool-mult"),
    pytest.param(["galois", "doc.json"], "ext_gaussian.json", ("algebra", "unit"),
                 [True, False], "boolean scalar True rejected", id="scalar-bool-unit"),
    pytest.param(["assoc-order", "doc.json", "--candidates", "a,b"], "lat_zi_qc2.json", (), None,
                 "candidate 'a,b' is not a vector over Q", id="inline-candidate-unparsable"),
    pytest.param(["verify", "doc.json"], TAFT_F5, ("field", "p"), 3317044064679887385961981,
                 "is too large", id="p-past-primality-bound"),
    pytest.param(["verify", "doc.json"], "hopf_sweedler_bad_antipode.json", ("basis",), 5,
                 "'basis' must be a list of strings", id="basis-number"),
    pytest.param(["verify", "doc.json"], "hopf_f2c2.json", ("builtin", "table"), [5, 6],
                 "row 0 of the group table is malformed", id="group-table-rows-numbers"),
    pytest.param(["verify", "doc.json"], "hopf_f2c2.json", ("builtin", "table"),
                 [[False, True], [True, False]], "row 0 of the group table is malformed",
                 id="group-table-bools"),
    pytest.param(["verify", "doc.json"], ONE_DIM_HOPF, ("mult",), [[False, False, False, "1"]],
                 "has non-integer indices", id="mult-index-bools"),
    pytest.param(["verify", "doc.json"], "hopf_f2c2.json", ("builtin", "labels"), 7,
                 "'labels' must be a list of strings", id="group-labels-number"),
    # a repeated label would make reports and dual labels ambiguous
    pytest.param(["verify", "doc.json"], "hopf_sweedler_bad_antipode.json", ("basis",),
                 ["1", "g", "x", "g"], "algebra 'basis' repeats the label 'g'",
                 id="basis-repeated-label"),
    pytest.param(["integrals", "doc.json"], "hopf_f2c2.json", ("builtin", "labels"), ["a", "a"],
                 "group_algebra 'labels' repeats the label 'a'", id="group-labels-repeated"),
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "doc.json", "--levels", "1"],
                 "smashmod_sum.json", ("smash_module", "sum"), 5,
                 "smash module 'sum' must be a list", id="smash-sum-number"),
    pytest.param(["homology", "doc.json"], "lat_zi_qc2.json", ("candidates",), 5,
                 "'candidates' must be a list", id="candidates-number"),
    pytest.param(["assoc-order", "doc.json", "--candidates"], "lat_zi_qc2.json", ("candidates",),
                 5, "'candidates' must be a list", id="candidates-number-assoc-order"),
]


def run_on_changed_doc(tmp_path, fixtures, command, base, path, value):
    """Exit code of `command` run in process, with doc.json the fixture `base`
    (or a document) whose field at `path` is set to `value`."""
    doc = json.loads((fixtures / base).read_text()) if isinstance(base, str) else base
    doc = json.loads(json.dumps(doc))
    section = doc
    for key in path[:-1]:
        section = section[key]
    if path:
        section[path[-1]] = value
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    args = [
        str(tmp_path / a) if a == "doc.json" else fx(fixtures, a) if a.endswith(".json") else a
        for a in command
    ]
    return cli.main(args)


@pytest.mark.parametrize("command,base,path,value,message", NESTED_CASES)
def test_malformed_nested_field_is_input_error(tmp_path, fixtures, capsys, command, base,
                                               path, value, message):
    assert run_on_changed_doc(tmp_path, fixtures, command, base, path, value) == 2
    assert message in capsys.readouterr().err


HUGE = 10 ** 9


@pytest.mark.parametrize("command,base,path,value,message", [
    pytest.param(["homology", "doc.json"], "mod_trivial_f2c2.json", ("module", "dim"), HUGE,
                 "module spec 'dim'", id="module-dim"),
    pytest.param(AYD_CYCLIC, "mod_kc2_ayd_f3.json", ("module", "dim"), HUGE,
                 "AYD module spec 'dim'", id="ayd-module-dim"),
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "doc.json", "--levels", "1"],
                 "smashmod_sum.json", ("smash_module",), {"dim": HUGE, "action": []},
                 "smash module spec 'dim'", id="smash-module-dim"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra", "dim"), HUGE,
                 "algebra 'dim'", id="algebra-dim"),
    pytest.param(["homology", "doc.json"], "lat_zi_qc2.json", ("ambient_dim",), HUGE,
                 "lattice file 'ambient_dim'", id="lattice-ambient-dim"),
])
def test_input_dimension_past_the_bound_is_refused_before_allocation(
        tmp_path, fixtures, capsys, command, base, path, value, message):
    # the tensors of a 10^9-dimensional input would never finish allocating
    start = time.perf_counter()
    assert run_on_changed_doc(tmp_path, fixtures, command, base, path, value) == 3
    assert time.perf_counter() - start < 2.0
    assert f"{message} {HUGE} > bound 5000" in capsys.readouterr().err


TAFT_F41 = {"field": {"kind": "Fp", "p": 41}, "builtin": {"name": "taft", "n": 5, "q": "10"}}
C3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("command,base,path,value,message", [
    pytest.param(["verify", "doc.json", "--max-dim", "10"], TAFT_F41, (), None,
                 "taft 'n' 5 has dimension 25 > bound 10", id="taft"),
    pytest.param(["verify", "doc.json", "--max-dim", "10"], TAFT_F41, ("builtin",),
                 {"name": "dual", "of": TAFT_F41["builtin"]},
                 "taft 'n' 5 has dimension 25 > bound 10", id="dual-of-taft"),
    pytest.param(["verify", "doc.json"], TAFT_F5, ("builtin", "n"), HUGE,
                 f"taft 'n' {HUGE} has dimension {HUGE * HUGE} > bound 5000", id="taft-huge-n"),
    pytest.param(["verify", "doc.json", "--max-dim", "2"], "hopf_f2c2.json", ("builtin",),
                 {"name": "group_algebra", "table": C3_TABLE},
                 "group_algebra 'table' of order 3 has dimension 3 > bound 2", id="group-algebra"),
    pytest.param(["integrals", "doc.json", "--max-dim", "3"], "hopf_sweedler.json", (), None,
                 "sweedler has dimension 4 > bound 3", id="sweedler"),
])
def test_builtin_past_the_bound_is_refused_before_building(
        tmp_path, fixtures, capsys, command, base, path, value, message):
    start = time.perf_counter()
    assert run_on_changed_doc(tmp_path, fixtures, command, base, path, value) == 3
    assert time.perf_counter() - start < 2.0
    assert message in capsys.readouterr().err


def parse_through_the_domain(domain, text):
    """`files._parse_scalar` on a string as it was before integer literals
    took their own path: every text goes through `domain.parse`."""
    try:
        return domain.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"scalar {text!r} is not an element of {domain.name}: {exc}") from exc


def outcome(parse, domain, text):
    try:
        value = parse(domain, text)
    except HopfgalError as exc:
        return type(exc), str(exc)
    return type(value), value


# signed and padded ASCII digits, and texts the integer path must leave to
# domain.parse: underscores, other scripts' digits, exponents, fractions
LITERALS = st.one_of(
    st.builds(lambda pad, sign, digits, end: pad + sign + digits + end,
              st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "-", "+", "--"]),
              st.text("0123456789", max_size=24), st.sampled_from(["", " ", "\n"])),
    st.sampled_from(["1_000", "-1_000", "\u0663", "-\u0663", "\u00b2", "1e3", "1/2",
                     "-1/2", "1/7", "3/0", "1.5", "0x10", "-", "", "-0", "007"]),
)


@given(LITERALS, st.sampled_from(["Q", "Z", "F7"]))
@example("9" * 4301, "Q")
@example("-" + "9" * 4301, "F7")
def test_integer_literals_parse_as_the_domain_parses_them(text, name):
    domain = {"Q": linalg.QQ, "Z": linalg.ZZ, "F7": linalg.GF(7)}[name]
    got = outcome(files._parse_scalar, domain, text)
    assert got == outcome(parse_through_the_domain, domain, text)
    if domain is linalg.QQ and got[0] is Fraction:
        assert linalg.QQ.normalize(got[1]) is got[1]


def test_verify_over_a_large_prime(tmp_path, capsys):
    # 10^18 + 3 is prime; trial division up to its square root never finished
    one = {
        "field": {"kind": "Fp", "p": 1000000000000000003},
        "dim": 1, "mult": [[0, 0, 0, "1"]], "unit": ["1"],
        "comult": [[0, 0, 0, "1"]], "counit": ["1"], "antipode": [[0, 0, "1"]],
    }
    (tmp_path / "one.json").write_text(json.dumps(one))
    assert cli.main(["verify", str(tmp_path / "one.json")]) == 0
    assert "all axioms pass" in capsys.readouterr().out


def test_unexpected_exception_exits_4(fixtures, capsys, monkeypatch):
    def broken(h):
        raise RuntimeError("broken check")

    # an explicit document still reaches verify_hopf; a group algebra keeps
    # its report by theorem
    monkeypatch.setattr(hopf, "verify_hopf", broken)
    assert cli.main(["verify", fx(fixtures, "hopf_sweedler_bad_antipode.json")]) == 4
    captured = capsys.readouterr()
    assert "internal error: RuntimeError: broken check" in captured.err
    assert captured.out == ""


def explicit_document(field, h):
    """The explicit Hopf document of h's structure constants, over `field`."""
    return {
        "field": field, "dim": h.dim, "basis": list(h.labels),
        "mult": [[i, j, k, str(c)] for i, row in enumerate(h.algebra.mult)
                 for j, cell in enumerate(row) for k, c in cell],
        "unit": [str(c) for c in h.algebra.unit],
        "comult": [[i, j, k, str(c)] for i, delta in enumerate(h.comult) for j, k, c in delta],
        "counit": [str(c) for c in h.counit],
        "antipode": [[i, j, str(c)] for i, col in enumerate(h.antipode.cols) for j, c in col],
    }


F5 = {"kind": "Fp", "p": 5}
TAFT4_F5 = {"field": F5, "builtin": {"name": "taft", "n": 4, "q": "2"}}
DUAL_TAFT4_F5 = {"field": F5, "builtin": {"name": "dual", "of": TAFT4_F5["builtin"]}}
DUAL_DUAL_TAFT4_F5 = {"field": F5, "builtin": {"name": "dual", "of": DUAL_TAFT4_F5["builtin"]}}
DUAL_C4_F5 = {"field": F5, "builtin": {"name": "dual", "of": {
    "name": "group_algebra", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}}}


@functools.lru_cache(maxsize=None)
def sweedler_q_explicit():
    """Sweedler's algebra over Q as an explicit document, built on first call
    so that a builtin that fails to build fails the tests that read it, not
    the module's collection."""
    return explicit_document({"kind": "Q"}, hopf.sweedler(linalg.QQ))


@pytest.mark.parametrize("command,doc,calls,solves", [
    pytest.param(["verify"], TAFT4_F5, 1, 0, id="verify-taft"),
    # Taft keeps its verify_hopf run, and its integral lines by theorem
    pytest.param(["integrals"], TAFT4_F5, 1, 0, id="integrals-taft"),
    # the inner Taft algebra is verified; its dual, a transposition, takes
    # that report and the two integral lines, swapped, and so does the dual
    # of the dual
    pytest.param(["integrals"], DUAL_TAFT4_F5, 1, 0, id="integrals-dual-taft"),
    pytest.param(["integrals"], DUAL_DUAL_TAFT4_F5, 1, 0, id="integrals-dual-dual-taft"),
    pytest.param(["verify"], "hopf_sweedler_bad_antipode.json", 1, 0, id="verify-explicit"),
    # an explicit document is verified once and solves its integral once
    pytest.param(["integrals"], sweedler_q_explicit, 1, 1, id="integrals-explicit"),
    # a group algebra keeps its report and its integral sum_g g by theorem
    pytest.param(["verify"], "hopf_qc2.json", 0, 0, id="verify-group"),
    pytest.param(["integrals"], "hopf_f2c2.json", 0, 0, id="integrals-group"),
    # k^G takes the report of kG and its integral 1* by theorem
    pytest.param(["integrals"], DUAL_C4_F5, 0, 0, id="integrals-dual-group"),
    pytest.param(["tame"], "ext_gaussian.json", 0, 0, id="tame-group"),
    pytest.param(["cyclic", "--module", "mod_kc2_ayd_f3.json"], "comodalg_graded_f3.json", 0, 0,
                 id="cyclic-group"),
])
def test_each_hopf_algebra_is_verified_once_per_command(tmp_path, fixtures, capsys, monkeypatch,
                                                       command, doc, calls, solves):
    doc = doc() if callable(doc) else doc  # built before the counters are set
    seen, solved = [], []
    verify, solve = hopf.verify_hopf, hopf._integral_space

    def counted(h):
        seen.append(h.dim)
        return verify(h)

    def counted_solve(h):
        solved.append(h.dim)
        return solve(h)

    monkeypatch.setattr(hopf, "verify_hopf", counted)
    monkeypatch.setattr(hopf, "_integral_space", counted_solve)
    argv = [command[0], "doc.json", *command[1:]]
    code = run_on_changed_doc(tmp_path, fixtures, argv, doc, (), None)
    assert code == (1 if doc == "hopf_sweedler_bad_antipode.json" else 0)
    assert len(seen) == calls
    assert len(solved) == solves


def count_tensor_builds(monkeypatch):
    """A Counter of the calls of each builder of a derived tensor, by name."""
    calls = collections.Counter()
    for name in ("group_mult", "dual_mult", "dual_comult"):
        def counted(*args, _name=name, _fn=getattr(hopf, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(hopf, name, counted)
    return calls


@pytest.mark.parametrize("command,doc,builds", [
    # a dual takes H's report and integral lines, and kG its own by theorem:
    # neither reads a tensor that it derives, so none is built
    pytest.param(["verify"], DUAL_TAFT4_F5, {}, id="verify-dual-taft"),
    pytest.param(["integrals"], DUAL_TAFT4_F5, {}, id="integrals-dual-taft"),
    pytest.param(["integrals"], DUAL_DUAL_TAFT4_F5, {}, id="integrals-dual-dual-taft"),
    pytest.param(["verify"], "hopf_taft3_dual_f7.json", {}, id="verify-dual-taft3"),
    pytest.param(["verify"], "hopf_qc2.json", {}, id="verify-group"),
    pytest.param(["integrals"], "hopf_f2c2.json", {}, id="integrals-group"),
    pytest.param(["integrals"], DUAL_C4_F5, {}, id="integrals-dual-group"),
    # the coaction-algebra law reads kG's product, built once
    pytest.param(["cyclic", "--module", "mod_kc2_ayd_f3.json"], "comodalg_graded_f3.json",
                 {"group_mult": 1}, id="cyclic-group"),
])
def test_derived_tensors_are_built_on_first_read(tmp_path, fixtures, capsys, monkeypatch,
                                                 command, doc, builds):
    calls = count_tensor_builds(monkeypatch)
    argv = [command[0], "doc.json", *command[1:]]
    assert run_on_changed_doc(tmp_path, fixtures, argv, doc, (), None) == 0
    assert calls == builds


def test_an_action_only_cyclic_builds_each_tensor_it_reads_once(tmp_path, fixtures, capsys,
                                                                 monkeypatch):
    # S is a kC2-module algebra, read as a comodule algebra over dual(kC2):
    # kG's product once, the coproduct of dual(kC2) once, and its product
    # once: kC2 holds it as ``dual_product``, which the module law of M
    # over dual(kC2) and the module-algebra law of S both read
    calls = count_tensor_builds(monkeypatch)
    assert cli.main(action_only_cyclic(tmp_path, fixtures) + ["--levels", "2"]) == 0
    assert calls == {"group_mult": 1, "dual_mult": 1, "dual_comult": 1}


@pytest.mark.parametrize("command,doc,searches", [
    # Taft, and Sweedler with it, take g and x as generators over a field
    pytest.param(["verify"], TAFT4_F5, 0, id="verify-taft"),
    pytest.param(["integrals"], DUAL_TAFT4_F5, 0, id="integrals-dual-taft"),
    pytest.param(["verify"], "hopf_sweedler.json", 0, id="verify-sweedler"),
    # over Z the search finds no generating set, and the laws run on every row
    pytest.param(["verify"], {"field": {"kind": "Z"}, "builtin": {"name": "sweedler"}}, 1,
                 id="verify-sweedler-z"),
    # an explicit document still searches, once
    pytest.param(["verify"], sweedler_q_explicit, 1, id="verify-explicit"),
    pytest.param(["integrals"], sweedler_q_explicit, 1, id="integrals-explicit"),
])
def test_builtin_taft_takes_its_generators_from_the_presentation(
        tmp_path, fixtures, capsys, monkeypatch, command, doc, searches):
    doc = doc() if callable(doc) else doc  # built before the counter is set
    seen = []
    search = hopf.generating_set

    def counted(domain, mult, unit):
        seen.append(len(unit))
        return search(domain, mult, unit)

    monkeypatch.setattr(hopf, "generating_set", counted)
    assert run_on_changed_doc(tmp_path, fixtures, [*command, "doc.json"], doc, (), None) == 0
    assert len(seen) == searches


def test_integrals_of_a_z_group_algebra_still_need_a_field(tmp_path, fixtures, capsys):
    doc = json.loads((fixtures / "hopf_qc2.json").read_text())
    doc["field"] = {"kind": "Z"}
    (tmp_path / "zc2.json").write_text(json.dumps(doc))
    assert cli.main(["integrals", str(tmp_path / "zc2.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _stderr_without_elapsed(captured.err) == [
        "error: integral computation needs a field, not Z; use the integer normal-form "
        "routines for Z"
    ]


@pytest.mark.parametrize("command", ["bar-shift", "cyclic"])
def test_each_algebra_law_is_decided_where_its_data_enters(tmp_path, fixtures, capsys,
                                                           monkeypatch, command):
    # the algebra laws of S, once; H is a group algebra, whose laws
    # `check_group_table` decides on its table.  S#H, dual(H) and the comodule
    # algebra that an action-only extension converts to are built as records,
    # so no comodule-algebra law is decided either
    calls = collections.Counter()
    for owner, name in ((hopf, "algebra_from_triples"),
                        (hopf.AlgebraData, "associativity_witness"),
                        (cocyclic, "comodule_algebra")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    if command == "bar-shift":
        args = ["bar-shift", fx(fixtures, "ext_gaussian.json"),
                "--module", fx(fixtures, "smashmod_sum.json")]
    else:
        args = action_only_cyclic(tmp_path, fixtures) + ["--levels", "2"]
    assert cli.main(args) == 0
    assert calls == {"algebra_from_triples": 1, "associativity_witness": 1}


@pytest.mark.parametrize("case,algebras", [("verify-sweedler", 1), ("tame-trunc", 2),
                                            ("taft-build", 1)])
def test_the_unit_law_of_an_algebra_is_decided_once(fixtures, capsys, monkeypatch, case,
                                                    algebras):
    # associativity reads the unit law as its gate on the generating rows, and
    # `_checked_algebra` reads it after associativity: one decision serves both.
    # `tame` loads two algebras, H and S
    decided = []
    law = hopf.AlgebraData.__dict__["_unit_law"]
    counted = functools.cached_property(lambda alg: decided.append(alg) or law.func(alg))
    counted.__set_name__(hopf.AlgebraData, "_unit_law")
    monkeypatch.setattr(hopf.AlgebraData, "_unit_law", counted)
    if case == "taft-build":
        assert hopf.taft(linalg.GF(13), 4, 5).algebra.generators is not None
    else:
        command, name = {"verify-sweedler": ("verify", "hopf_sweedler.json"),
                         "tame-trunc": ("tame", "ext_trunc.json")}[case]
        assert cli.main([command, fx(fixtures, name)]) == 0
    assert len(decided) == len({id(alg) for alg in decided}) == algebras


@pytest.mark.parametrize("module", ["mod_kc2_ayd_f3.json", "mod_kc2_swap_f3.json"])
def test_ayd_law_is_decided_once_per_cyclic_command(fixtures, capsys, monkeypatch, module):
    # the verdict is kept on M, and stability, checked only when the law
    # holds, reads it; the left legs, and the inverse antipode they come
    # from, are worked out once too
    calls = collections.Counter()
    for owner, name in ((cocyclic, "ayd_check"), (linalg, "invert")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    args = ["cyclic", fx(fixtures, "comodalg_graded_f3.json"), "--module", fx(fixtures, module),
            "--levels", "2", "--json"]
    cli.main(args)
    report = json.loads(capsys.readouterr().out)
    assert report["ayd"] == (module == "mod_kc2_ayd_f3.json")
    assert calls == {"ayd_check": 1, "invert": 1}


@pytest.mark.parametrize("command", [
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json"],
    ["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json"],
], ids=["cyclic", "bar-shift"])
def test_negative_levels_are_input_error(fixtures, capsys, command):
    args = [fx(fixtures, a) if a.endswith(".json") else a for a in command]
    assert cli.main(args + ["--levels", "-1"]) == 2
    assert "--levels must be 0 or more" in capsys.readouterr().err


def test_integrals_solves_each_integral_space_once(tmp_path, fixtures, capsys, monkeypatch):
    # one left solve per Hopf algebra object; the right integral is the
    # antipode image of the left one and solves no fixed-point system.  A
    # builtin holds its integrals by theorem, so the Sweedler algebra is
    # given as an explicit document, which solves
    solves, systems = [], []
    solve, fixed = hopf._integral_space, hopf.fixed_points

    def counted(h):
        solves.append(h)
        return solve(h)

    def counted_fixed(h, action):
        systems.append(action)
        return fixed(h, action)

    monkeypatch.setattr(hopf, "_integral_space", counted)
    monkeypatch.setattr(hopf, "fixed_points", counted_fixed)
    (tmp_path / "sweedler.json").write_text(json.dumps(sweedler_q_explicit()))
    assert cli.main(["integrals", str(tmp_path / "sweedler.json")]) == 0
    assert "semisimple: false" in capsys.readouterr().out
    assert len(solves) == 1
    assert systems == [solves[0].algebra.mult]
    # the classification and the homology dimension read the integral sum_g g
    # that a group algebra keeps from construction, and solve nothing
    for command, name in (("tame", "ext_f4.json"), ("galois", "ext_gaussian.json")):
        solves.clear()
        assert cli.main([command, fx(fixtures, name)]) == 0
        assert "classification: tame+hopf-galois" in capsys.readouterr().out
        assert len(solves) == 0, command


def test_assoc_order_takes_the_integral_generator_from_the_tame_report(fixtures, capsys,
                                                                      monkeypatch):
    from hopfgal import lattices

    calls = collections.Counter()
    for name in ("is_hopf_order", "lattice_integrals"):
        def counted(order, _name=name, _fn=getattr(lattices, name)):
            calls[_name] += 1
            return _fn(order)

        monkeypatch.setattr(lattices, name, counted)
    assert cli.main(["assoc-order", fx(fixtures, "lat_zi_qc2.json"), "--candidates"]) == 0
    assert "integral generator: 1/2*1 + 1/2*s" in capsys.readouterr().out
    # the order keeps its Hopf-order report, which the command and the one tame
    # check, which finds the integral generator, both read; the freeness check
    # reads the tame report
    assert calls == {"is_hopf_order": 1, "lattice_integrals": 1}


@pytest.mark.parametrize("name", ["mod_trivial_f2c2.json", "lat_zi_qc2.json"])
def test_homology_reads_its_input_once(fixtures, capsys, monkeypatch, name):
    paths = []
    load = files.load_document

    def counted(path):
        paths.append(path)
        return load(path)

    monkeypatch.setattr(files, "load_document", counted)
    assert cli.main(["homology", fx(fixtures, name)]) == 0
    assert capsys.readouterr().out.startswith("hopfgal homology:")
    assert paths == [fx(fixtures, name)]


# per-command imports and the one parser ------------------------------------------

LAYERS = {"hopfgal.actions", "hopfgal.cocyclic", "hopfgal.lattices"}
# what generating record methods from source would load; no command loads them
CODE_GENERATORS = {"dataclasses", "inspect"}
# runs one command, then prints the hopfgal layers (and code generators) it
# loaded as the last stdout line
LOADED_LAYERS = (
    "import json, sys\n"
    "from hopfgal import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m in %r)))\n"
    "sys.exit(code)\n" % sorted(LAYERS | CODE_GENERATORS)
)


LOADED_BY_COMMAND = [
    (["verify", "hopf_sweedler.json"], set()),
    (["integrals", "hopf_qc2.json"], set()),
    (["tame", "ext_f4.json"], {"hopfgal.actions"}),
    (["galois", "ext_gaussian.json"], {"hopfgal.actions"}),
    (["homology", "mod_trivial_f2c2.json"], {"hopfgal.actions"}),
    (["homology", "lat_zi_qc2.json"], {"hopfgal.actions", "hopfgal.lattices"}),
    (["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json"],
     {"hopfgal.cocyclic"}),
    (["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json"],
     {"hopfgal.actions", "hopfgal.cocyclic"}),
]


@pytest.mark.parametrize("command,loaded", LOADED_BY_COMMAND,
                         ids=["-".join(c[:2]) for c, _ in LOADED_BY_COMMAND])
def test_a_fresh_command_loads_only_its_layers(fixtures, command, loaded):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", LOADED_LAYERS, *materialize(fixtures, command)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == loaded


# imports the modules named on the command line under an audit hook, then
# runs a probe named hopfgal.probe that builds a namedtuple, and prints the
# modules that asked for source text to be compiled: a "<string>" compile
# whose nearest caller in a hopfgal.* module is not behind an import, so a
# standard-library module that generates code in its own body is not counted
GENERATED_CODE = r"""
import importlib, json, sys
asked = []
def hook(event, args):
    if event != "compile" or args[1] != "<string>":
        return
    frame = sys._getframe(1)
    while frame and not frame.f_code.co_filename.startswith("<frozen importlib"):
        if frame.f_globals.get("__name__", "").startswith("hopfgal"):
            asked.append(frame.f_globals["__name__"])
            return
        frame = frame.f_back
sys.addaudithook(hook)
for name in sys.argv[1:]:
    importlib.import_module(name)
modules = list(asked)
exec("import collections\nP = collections.namedtuple('P', 'a b')", {"__name__": "hopfgal.probe"})
print(json.dumps([modules, asked[len(modules):]]))
"""


def test_importing_hopfgal_compiles_no_generated_code():
    # every record class comes from `reporting.record`, whose methods are
    # closures; a dataclass or NamedTuple would compile generated source here
    package = os.path.join(PKG_SRC, "hopfgal")
    names = sorted("hopfgal" if f == "__init__.py" else "hopfgal." + f[:-3]
                   for f in os.listdir(package) if f.endswith(".py"))
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", GENERATED_CODE, *names],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    modules, probe = json.loads(proc.stdout)
    assert "hopfgal.cocyclic" in names and probe  # the hook sees a namedtuple
    assert modules == []


def _stderr_without_elapsed(text):
    return [line for line in text.splitlines() if not line.startswith("# elapsed:")]


# one per command, with a theorem-level mismatch and an input error among them
IN_TURN = [
    ["verify", "hopf_sweedler.json"],
    ["tame", "ext_f4.json", "--expect", "tame", "--json"],
    ["verify", "hopf_sweedler_bad_antipode.json"],
    ["integrals", "hopf_qc2.json", "--json"],
    ["galois", "ext_trivial.json", "--expect", "tame"],
    ["homology", "lat_zi_qc2.json"],
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json", "--levels", "2"],
    ["verify", "malformed.json"],
    ["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json", "--levels", "2"],
    ["assoc-order", "lat_zi_qc2.json", "--candidates"],
    ["verify", "hopf_sweedler.json"],
]


def test_commands_in_turn_in_one_process_match_fresh_processes(fixtures, capsys):
    for command in IN_TURN:
        args = materialize(fixtures, command)
        code = cli.main(args)
        captured = capsys.readouterr()
        fresh = run_cli(args)
        assert (captured.out, code) == (fresh.stdout, fresh.returncode), command
        assert _stderr_without_elapsed(captured.err) == _stderr_without_elapsed(fresh.stderr)


def test_a_handler_patched_after_the_parser_is_built_runs(fixtures, capsys, monkeypatch):
    path = fx(fixtures, "hopf_sweedler.json")
    assert cli.main(["verify", path]) == 0
    calls = []

    def patched(args):
        calls.append(args.path)
        return cli._doc("verify", args.path, checks=[], passed=False), 1

    monkeypatch.setattr(cli, "run_verify", patched)
    assert cli.main(["verify", path]) == 1
    assert calls == [path]
    assert "axiom failure" in capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", [
    ["tame", "ext_z.json"],
    ["galois", "ext_z.json"],
    ["bar-shift", "ext_z.json", "--module", "smashmod_sum.json"],
    ["cyclic", "ext_z.json", "--module", "mod_kc2_ayd_f3.json"],
], ids=lambda c: c[0])
def test_z_domain_extension_is_refused_by_the_dictionary_field_check(tmp_path, fixtures, capsys,
                                                                    command):
    doc = json.loads((fixtures / "ext_gaussian.json").read_text())
    doc["field"] = {"kind": "Z"}
    (tmp_path / "ext_z.json").write_text(json.dumps(doc))
    args = [str(tmp_path / a) if a == "ext_z.json" else fx(fixtures, a) if a.endswith(".json")
            else a for a in command]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _stderr_without_elapsed(captured.err) == [
        "error: module/comodule dictionary needs a field, not Z; use the integer normal-form "
        "routines for Z"
    ]


def action_only_cyclic(tmp_path, fixtures):
    """The cyclic command on the graded line of comodalg_graded_f3 as a
    kC2-module algebra, s.x = -x, with trivial coefficients over dual(kC2):
    delta_s acts as 0, rho(m) = m (x) 1."""
    doc = json.loads((fixtures / "comodalg_graded_f3.json").read_text())
    del doc["coaction"]
    doc["action"] = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 0, "1"], [1, 1, 1, "2"]]
    module = {"module": {"dim": 2, "action": [[0, 0, 0, "1"], [0, 1, 1, "1"]],
                         "coaction": [[0, 0, 0, "1"], [0, 0, 1, "1"], [1, 1, 0, "1"],
                                      [1, 1, 1, "1"]]}}
    (tmp_path / "ext.json").write_text(json.dumps(doc))
    (tmp_path / "mod.json").write_text(json.dumps(module))
    return ["cyclic", str(tmp_path / "ext.json"), "--module", str(tmp_path / "mod.json")]


def test_cyclic_converts_an_action_only_extension(tmp_path, fixtures, capsys):
    args = action_only_cyclic(tmp_path, fixtures) + ["--levels", "3", "--json"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converted_from_action"] is True
    assert (report["ayd"], report["stable"]) == (True, True)
    assert [level["cotensor_dim"] for level in report["per_level"]] == [2, 4, 8, 16]
    args = ["cyclic", fx(fixtures, "comodalg_graded_f3.json"),
            "--module", fx(fixtures, "mod_kc2_ayd_f3.json"), "--levels", "0", "--json"]
    assert cli.main(args) == 0
    assert json.loads(capsys.readouterr().out)["converted_from_action"] is False


# where each law is decided ---------------------------------------------------------
#
# Each law is decided once, where its data enters: a module file, the
# action of an extension file, an explicit smash-module spec, an AYD
# module file, a lattice action, the coaction of an extension file and an
# explicit Hopf file.  Every failed law exits 1; the exit code and the first
# stderr line of a refusal at each of those boundaries are pinned here.

@pytest.mark.parametrize("command,code,first_line", [
    pytest.param(["homology", "mod_badlaw_f2c2.json"], 1,
                 "axiom failure: module-law fails at (1, 1)", id="homology-module-law"),
    pytest.param(["homology", "mod_badlaw_zc2.json"], 2,
                 "error: hopfological homology needs a field, not Z; use the integer "
                 "normal-form routines for Z", id="homology-field-first"),
    pytest.param(["tame", "ext_badlaw_qc2.json"], 1,
                 "axiom failure: module-algebra-mult fails at (1, 1)", id="tame-module-algebra-law"),
    pytest.param(["tame", "ext_badunit_qc2.json"], 1,
                 "axiom failure: module-algebra-unit fails at ()", id="tame-module-algebra-unit"),
    pytest.param(["cyclic", "ext_badlaw_qc2.json", "--module", "mod_kc2_ayd_f3.json"], 1,
                 "axiom failure: module-algebra-mult fails at (1, 1)",
                 id="cyclic-module-algebra-law"),
    pytest.param(["cyclic", "ext_badunit_qc2.json", "--module", "mod_kc2_ayd_f3.json"], 1,
                 "axiom failure: module-algebra-unit fails at ()", id="cyclic-module-algebra-unit"),
    pytest.param(["bar-shift", "ext_gaussian.json", "--module", "smashmod_badlaw.json"], 1,
                 "axiom failure: smash-module-law fails at (1, 1)",
                 id="bar-shift-smash-module-law"),
    pytest.param(["cyclic", "comodalg_graded_f3.json", "--module", "mod_ayd_noaction_f3.json"], 1,
                 "axiom failure: module-law fails at ('unit',)", id="cyclic-ayd-module-law"),
    pytest.param(["homology", "lat_badlaw_qc2.json"], 1,
                 "axiom failure: module-law fails at (1, 1)", id="homology-lattice-module-law"),
    pytest.param(["assoc-order", "lat_badlaw_qc2.json"], 1,
                 "axiom failure: module-law fails at (1, 1)", id="assoc-order-lattice-module-law"),
    pytest.param(["cyclic", "comodalg_badcounit_f3.json", "--module", "mod_kc2_ayd_f3.json"], 1,
                 "axiom failure: comodule-counit fails at (1,)", id="cyclic-comodule-counit"),
    pytest.param(["integrals", "hopf_sweedler_bad_antipode.json"], 1,
                 "axiom failure: antipode fails at (2,)", id="integrals-hopf-axiom"),
    pytest.param(["integrals", "hopf_sweedler_bad_antipode_dual.json"], 1,
                 "axiom failure: antipode fails at (2,)", id="integrals-dual-hopf-axiom"),
])
@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_each_law_is_refused_where_its_data_enters(fixtures, capsys, command, code, first_line,
                                                   form):
    args = [fx(fixtures, a) if a.endswith(".json") else a for a in command]
    assert cli.main(args + form) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == first_line


@pytest.mark.parametrize("command", ["homology", "assoc-order"])
def test_a_lattice_algebra_block_is_refused_by_its_module_algebra_law(fixtures, tmp_path, capsys,
                                                                      command):
    # s acting by [[1, 1], [0, -1]] is an involution, so the module law holds, but
    # not an automorphism of Q(i): the integral tameness check refuses the algebra
    doc = json.loads((fixtures / "lat_zi_qc2.json").read_text())
    doc["action"][1] = [["1", "1"], ["0", "-1"]]
    (tmp_path / "lat.json").write_text(json.dumps(doc))
    assert cli.main([command, str(tmp_path / "lat.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "axiom failure: module-algebra-mult fails at (1, 1)"
