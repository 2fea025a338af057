import json
import os
import subprocess
import sys

import pytest

from hopfgal import cli

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


def _with_extra_action_entry(name, entry):
    with open(os.path.join(os.path.dirname(__file__), "fixtures", name)) as handle:
        doc = json.load(handle)
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


@pytest.mark.parametrize("text", ["[1]", "5"], ids=["array", "number"])
@pytest.mark.parametrize("command", NON_OBJECT_COMMANDS)
def test_non_object_document_is_input_error(tmp_path, fixtures, capsys, command, text):
    (tmp_path / "doc.json").write_text(text)
    args = [
        str(tmp_path / a) if a == "doc.json" else fx(fixtures, a) if a.endswith(".json") else a
        for a in command
    ]
    assert cli.main(args) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


# A nested section must be a JSON object, and an integer field a JSON integer:
# anything else is an input error, never a traceback or a silent truncation.
TAFT_F5 = {"field": {"kind": "Fp", "p": 5}, "builtin": {"name": "taft", "n": 2, "q": "4"}}
AYD_CYCLIC = ["cyclic", "comodalg_graded_f3.json", "--module", "doc.json", "--levels", "1"]
NESTED_CASES = [
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra",), 5, id="algebra-number"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra",), [1], id="algebra-array"),
    pytest.param(AYD_CYCLIC, "mod_kc2_ayd_f3.json", ("module",), 5, id="ayd-module-number"),
    pytest.param(["homology", "doc.json"], "mod_trivial_f2c2.json", ("module",), 5,
                 id="module-number"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra", "dim"), "abc", id="dim-string"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("algebra", "dim"), 2.7, id="dim-float"),
    pytest.param(["tame", "doc.json"], "ext_f4.json", ("field", "p"), "2", id="p-string"),
    pytest.param(["homology", "doc.json"], "mod_trivial_f2c2.json", ("module", "dim"), True,
                 id="module-dim-bool"),
    pytest.param(AYD_CYCLIC, "mod_kc2_ayd_f3.json", ("module", "dim"), "2", id="ayd-dim-string"),
    pytest.param(["verify", "doc.json"], TAFT_F5, ("builtin", "n"), 2.0, id="taft-n-float"),
    pytest.param(["homology", "doc.json"], "lat_zi_qc2.json", ("ambient_dim",), 2.0,
                 id="ambient-dim-float"),
]


@pytest.mark.parametrize("command,base,path,value", NESTED_CASES)
def test_malformed_nested_field_is_input_error(tmp_path, fixtures, capsys, command, base,
                                               path, value):
    doc = json.loads((fixtures / base).read_text()) if isinstance(base, str) else base
    doc = json.loads(json.dumps(doc))
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    args = [
        str(tmp_path / a) if a == "doc.json" else fx(fixtures, a) if a.endswith(".json") else a
        for a in command
    ]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "must hold a JSON object" in err or "must be a JSON integer" in err


@pytest.mark.parametrize("command", [
    ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json"],
    ["bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json"],
], ids=["cyclic", "bar-shift"])
def test_negative_levels_are_input_error(fixtures, capsys, command):
    args = [fx(fixtures, a) if a.endswith(".json") else a for a in command]
    assert cli.main(args + ["--levels", "-1"]) == 2
    assert "--levels must be 0 or more" in capsys.readouterr().err
