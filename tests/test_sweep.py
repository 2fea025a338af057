"""``tools/sweep.py`` on two tiny cases, so that the sweep cannot rot.

The full sweep runs thousands of fresh processes and stays outside the
suite; here the tool runs end to end on one command in text and in
``--json`` form, and ``--compare`` finds a record equal to itself, lists
the cases whose exit code moved, groups them in its summary and prints
the median time and peak RSS ratios of each command.  One case runs
in process, under a parent that holds 100 MB, to show that the peak RSS
is the child's own, each scaling case runs three times, the floor case
is a bare interpreter run as the cases are, and a sweep runs its cases on
a copy of ``src`` that holds no bytecode.  With ``--alternate``, a stub in
place of ``run_case`` shows the order in which two trees' runs alternate
and that each tree's record holds its own runs.
"""

import importlib.util
import json
import pathlib
import random
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "sweep.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=300)


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_records_and_compares_two_cases(tmp_path):
    out = tmp_path / "a.json"
    proc = run_tool("--out", str(out), "--match", r"^integrals hopf_qc2\.json( --json)?$")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["integrals hopf_qc2.json", "integrals hopf_qc2.json --json"]
    assert {case["exit"] for case in record.values()} == {0}
    assert len({case["stdout"] for case in record.values()}) == 2
    # stderr holds only the elapsed line, which the hash leaves out
    assert {case["stderr"] for case in record.values()} == {
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}
    # each case is timed, and its child's peak RSS is recorded
    for case in record.values():
        assert 0 < case["time_s"] < 300
        assert 0 < case["peak_rss_mb"] < 1000

    same = run_tool("--compare", str(out), str(out))
    assert same.returncode == 0
    assert same.stdout.splitlines() == [
        "integrals: time x1.000 (IQR x1.000-x1.000, won 0 of 2), peak RSS x1.000 (median of 2)",
        "0 of 2 cases differ"]

    # time and RSS move no hash; the ratios are medians over the cases
    record["integrals hopf_qc2.json"]["exit"] = 1
    record["integrals hopf_qc2.json"]["time_s"] *= 2
    moved = tmp_path / "b.json"
    moved.write_text(json.dumps(record), encoding="utf-8")
    diff = run_tool("--compare", str(out), str(moved))
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == [
        "integrals hopf_qc2.json: exit differ (exit 0 -> 1)",
        "1 x integrals hopf_qc2.json: exit 0 -> 1",
        "integrals: time x1.500 (IQR x1.250-x1.750, won 0 of 2), peak RSS x1.000 (median of 2)",
        "1 of 2 cases differ"]

    # the summary groups cases by command, first fixture and exit transition
    record["integrals hopf_qc2.json --json"]["exit"] = 1
    record["verify hopf_qc2.json --max-dim 1"] = record["integrals hopf_qc2.json"]
    moved.write_text(json.dumps(record), encoding="utf-8")
    diff = run_tool("--compare", str(out), str(moved))
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == [
        "integrals hopf_qc2.json: exit differ (exit 0 -> 1)",
        "integrals hopf_qc2.json --json: exit differ (exit 0 -> 1)",
        "only in B: verify hopf_qc2.json --max-dim 1",
        "2 x integrals hopf_qc2.json: exit 0 -> 1",
        "1 x verify hopf_qc2.json: only in B",
        "integrals: time x1.500 (IQR x1.250-x1.750, won 0 of 2), peak RSS x1.000 (median of 2)",
        "3 of 3 cases differ"]


def test_scale_group_runs_its_own_builtin_specs(tmp_path):
    # verify and integrals on Taft n over F_97 and on its dual
    cases = [name for name in load_sweep().scale_cases() if "taft " in name]
    assert cases == [
        f"scale/{dual}taft {command} {dual.replace('-', '_')}taft_n{n}_F97.json"
        for n in (16, 24, 32) for dual in ("", "dual-") for command in ("verify", "integrals")]
    out = tmp_path / "scale.json"
    proc = run_tool("--out", str(out), "--match",
                    r"^scale/(dual-)?taft integrals (dual_)?taft_n16_F97\.json$")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["scale/dual-taft integrals dual_taft_n16_F97.json",
                              "scale/taft integrals taft_n16_F97.json"]
    assert {case["exit"] for case in record.values()} == {0}
    # each scaling case ran three times: the median time and the largest peak
    for case in record.values():
        assert len(case["time_s_runs"]) == len(case["peak_rss_mb_runs"]) == 3
        assert case["time_s"] == statistics.median(case["time_s_runs"])
        assert case["peak_rss_mb"] == max(case["peak_rss_mb_runs"])


def test_the_floor_case_is_a_bare_interpreter_run_three_times(tmp_path):
    sweep = load_sweep()
    out = tmp_path / "floor.json"
    proc = run_tool("--out", str(out), "--match", "^scale/floor")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record) == [sweep.FLOOR] == ["scale/floor python -c pass"]
    floor = record[sweep.FLOOR]
    assert floor["exit"] == 0
    assert floor["stdout"] == floor["stderr"] == sweep.digest("")
    assert len(floor["time_s_runs"]) == len(floor["peak_rss_mb_runs"]) == 3
    # started as the cases are, without the CLI: no hopfgal module is loaded
    assert 0 < floor["time_s"] < 30 and 0 < floor["peak_rss_mb"] < 30


def test_compare_prints_the_time_above_the_floor_beside_the_raw_ratio(tmp_path):
    floor = load_sweep().FLOOR

    def case(time_s):
        return {"exit": 0, "stdout": "a", "stderr": "b", "time_s": time_s, "peak_rss_mb": 20.0}

    a = {floor: case(0.1), "scale/taft verify t16": case(0.3), "scale/taft verify t24": case(0.5),
         "scale/taft verify t32": case(1.1)}
    # B's floor is 0.05 s slower; its work above the floor is half of A's
    b = {floor: case(0.15), "scale/taft verify t16": case(0.25),
         "scale/taft verify t24": case(0.35), "scale/taft verify t32": case(0.65)}
    paths = []
    for name, record in (("a", a), ("b", b), ("a-bare", {k: v for k, v in a.items() if k != floor})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    proc = run_tool("--compare", str(paths[0]), str(paths[1]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "scale/floor: time x1.500 (IQR x1.500-x1.500, won 0 of 1), peak RSS x1.000 (median of 1)",
        "scale/taft: time x0.700 (IQR x0.645-x0.767, won 3 of 3) (x0.500 above the floor), "
        "peak RSS x1.000 (median of 3)",
        "0 of 4 cases differ"]
    # a record without the floor prints the raw ratio alone
    proc = run_tool("--compare", str(paths[2]), str(paths[1]))
    assert proc.stdout.splitlines() == [
        f"only in B: {floor}",
        "1 x scale/floor : only in B",
        "scale/taft: time x0.700 (IQR x0.645-x0.767, won 3 of 3), peak RSS x1.000 (median of 3)",
        "1 of 4 cases differ"]


def test_compare_prints_the_cases_won_and_the_spread_of_the_time_ratios(tmp_path):
    def case(time_s):
        return {"exit": 0, "stdout": "a", "stderr": "b", "time_s": time_s, "peak_rss_mb": 20.0}

    # per-case ratios 0.5, 0.8, 0.9 and 1.2: B won three cases, lost one and
    # tied none; the quartiles of the ratios, inclusive of their ends, are
    # 0.725 and 0.975 around the median 0.85
    a = {f"scale/cyclic c{i}": case(1.0) for i in range(5)}
    b = {f"scale/cyclic c{i}": case(t) for i, t in enumerate((0.5, 0.8, 1.2, 0.9, 1.0))}
    del a["scale/cyclic c4"]
    paths = []
    for name, record in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    proc = run_tool("--compare", *map(str, paths))
    assert proc.stdout.splitlines()[-2:] == [
        "scale/cyclic: time x0.850 (IQR x0.725-x0.975, won 3 of 4), peak RSS x1.000 (median of 4)",
        "1 of 5 cases differ"]
    # one case is its own range
    assert load_sweep().quartiles([0.7]) == (0.7, 0.7)


def test_scale_runs_merge_into_one_record():
    merged = load_sweep().merged
    run = {"exit": 0, "stdout": "a", "stderr": "b"}
    runs = [{**run, "time_s": t, "peak_rss_mb": m}
            for t, m in ((3.0, 20.0), (1.0, 22.5), (2.0, 21.0))]
    assert merged(runs) == {**run, "time_s": 2.0, "peak_rss_mb": 22.5,
                            "time_s_runs": [3.0, 1.0, 2.0], "peak_rss_mb_runs": [20.0, 22.5, 21.0]}
    # runs that disagree in a hash are unstable; a timeout in any run is the case's
    assert merged([runs[0], {**runs[1], "stdout": "c"}, runs[2]])["exit"] == "unstable"
    assert merged([runs[0], {"exit": "timeout", "stdout": None, "stderr": None}, runs[2]]) == {
        "exit": "timeout", "stdout": None, "stderr": None}


def test_peak_rss_is_the_childs_own_and_not_the_sweeps(tmp_path):
    sweep = load_sweep()
    shutil.copyfile(ROOT / "tests" / "fixtures" / "hopf_qc2.json", tmp_path / "hopf_qc2.json")
    # a child's ru_maxrss starts at this process's RSS, 100 MB more with the
    # ballast written; its own VmHWM does not count the ballast
    ballast = bytearray(b"\x01") * (100 << 20)
    case = sweep.run_case(ROOT, tmp_path, ["integrals", "hopf_qc2.json"])
    assert len(ballast) == 100 << 20
    assert case["exit"] == 0
    assert 0 < case["peak_rss_mb"] < 30


def test_cases_run_a_copy_of_src_without_bytecode_or_a_pycache_prefix(tmp_path, monkeypatch):
    # a checkout whose src/ holds bytecode: the sweep's copy of src/ leaves it
    # out, and with PYTHONDONTWRITEBYTECODE no case writes any; no case sets
    # PYTHONPYCACHEPREFIX, which would compile the standard library too
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests" / "fixtures", repo / "tests" / "fixtures")
    (repo / "src" / "hopfgal" / "__pycache__").mkdir()
    (repo / "src" / "hopfgal" / "__pycache__" / "cli.cpython.pyc").write_bytes(b"")
    sweep = load_sweep()
    envs, caches = [], []
    popen, run_case = subprocess.Popen, sweep.run_case

    def recorded(*args, env, **kwargs):
        envs.append(env)
        return popen(*args, env=env, **kwargs)

    def checked(tree, workdir, argv):
        record = run_case(tree, workdir, argv)
        caches.append(sorted(pathlib.Path(tree, "src").rglob("__pycache__")))
        return record

    monkeypatch.setattr(subprocess, "Popen", recorded)
    monkeypatch.setattr(sweep, "run_case", checked)
    record = sweep.sweep(repo, r"^integrals hopf_qc2\.json( --json)?$")
    assert {case["exit"] for case in record.values()} == {0}
    assert len(envs) == len(caches) == 2
    for env in envs:
        assert "PYTHONPYCACHEPREFIX" not in env
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert not pathlib.Path(env["PYTHONPATH"]).is_relative_to(repo)
    assert caches == [[], []]


def test_scale_group_series_runs_builtin_group_algebras(tmp_path):
    # verify and integrals on C_N, integrals on its dual, over Q and F_97
    cases = [name for name in load_sweep().scale_cases() if "group " in name]
    assert cases == [
        f"scale/{series} {command} {dual}cyclic_N{n}_{field}.json"
        for n in (16, 64, 256) for field in ("Q", "F97")
        for series, command, dual in (("group", "verify", ""), ("group", "integrals", ""),
                                      ("dual-group", "integrals", "dual_"))]
    out = tmp_path / "group.json"
    proc = run_tool("--out", str(out), "--match",
                    r"^scale/(dual-)?group integrals (dual_)?cyclic_N16_F97\.json$")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["scale/dual-group integrals dual_cyclic_N16_F97.json",
                              "scale/group integrals cyclic_N16_F97.json"]
    assert {case["exit"] for case in record.values()} == {0}


def test_scale_group_lattice_series_runs_generated_lattice_files(tmp_path):
    # assoc-order on Z lattices over QC_2 of rank n, their basis a seeded random matrix
    sweep = load_sweep()
    cases = [name for name in sweep.scale_cases() if "lattice " in name]
    assert cases == [f"scale/lattice assoc-order zlattice_n{n}_seed{seed}.json"
                     for n in (16, 24, 32, 48, 64) for seed in (1, 4)]
    doc = sweep.lattice_specs()["zlattice_n16_seed4.json"]
    rng = random.Random(4)
    assert doc["basis"] == [[str(rng.randint(-9, 9)) for _ in range(16)] for _ in range(16)]
    identity, s = doc["action"]
    assert [row[i] for i, row in enumerate(identity)] == ["1"] * 16
    assert [row[i] for i, row in enumerate(s)] == ["1"] * 8 + ["-1"] * 8
    assert all(v == "0" for matrix in (identity, s)
               for i, row in enumerate(matrix) for j, v in enumerate(row) if i != j)
    assert doc["unit"] == ["1"] + ["0"] * 15
    out = tmp_path / "lattice.json"
    proc = run_tool("--out", str(out), "--match",
                    r"^scale/lattice assoc-order zlattice_n16_seed1\.json")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["scale/lattice assoc-order zlattice_n16_seed1.json",
                              "scale/lattice assoc-order zlattice_n16_seed1.json --json"]
    assert {case["exit"] for case in record.values()} == {0}


def test_scale_lattice_algebra_series_runs_group_ring_documents(tmp_path):
    # assoc-order --order group-ring on Z[C_n] inside Q[C_n], C_2 acting by
    # t -> t^-1, with an algebra section, so the rational cross-check runs
    sweep = load_sweep()
    cases = {name: argv for name, argv in sweep.scale_cases().items() if "lattice-algebra " in name}
    assert cases == {
        f"scale/lattice-algebra assoc-order zcyclic_n{n}.json --order group-ring":
            ["assoc-order", f"zcyclic_n{n}.json", "--order", "group-ring"]
        for n in (16, 32, 64, 128)}
    doc = sweep.group_ring_lattice_specs([5])["zcyclic_n5.json"]
    identity, inversion = doc["action"]
    assert doc["basis"] == identity == [[str(int(i == j)) for j in range(5)] for i in range(5)]
    # column k of the inversion is e_(-k mod 5)
    assert [[int(v) for v in row] for row in zip(*inversion)] == [
        [int(i == -k % 5) for i in range(5)] for k in range(5)]
    assert doc["algebra"]["mult"] == [[i, j, (i + j) % 5, "1"] for i in range(5) for j in range(5)]
    assert doc["unit"] == doc["algebra"]["unit"] == ["1", "0", "0", "0", "0"]
    out = tmp_path / "lattice-algebra.json"
    proc = run_tool("--out", str(out), "--match", r"^scale/lattice-algebra .*zcyclic_n16\.json")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == [
        "scale/lattice-algebra assoc-order zcyclic_n16.json --order group-ring",
        "scale/lattice-algebra assoc-order zcyclic_n16.json --order group-ring --json"]
    assert {case["exit"] for case in record.values()} == {0}


def two_checkouts(tmp_path):
    """Two checkouts A and B with the fixtures and a src that names its side."""
    repos = []
    for side in ("A", "B"):
        repo = tmp_path / side
        shutil.copytree(ROOT / "tests" / "fixtures", repo / "tests" / "fixtures")
        (repo / "src").mkdir()
        (repo / "src" / "SIDE").write_text(side, encoding="utf-8")
        repos.append(repo)
    return repos


def stub_runs(sweep, monkeypatch):
    """Replace run_case by a stub that records (side, case) per call and
    returns a record whose stdout is the side and whose time is the call's
    index."""
    calls = []

    def stub(tree, workdir, argv, code=sweep.LAUNCHER):
        side = pathlib.Path(tree, "src", "SIDE").read_text(encoding="utf-8")
        calls.append((side, " ".join(argv)))
        return {"exit": 0, "stdout": side, "stderr": "", "time_s": float(len(calls)),
                "peak_rss_mb": 1.0}

    monkeypatch.setattr(sweep, "run_case", stub)
    return calls


def test_alternate_runs_each_scaling_case_in_the_two_trees_in_turn(tmp_path, monkeypatch):
    sweep = load_sweep()
    calls = stub_runs(sweep, monkeypatch)
    match = r"^(scale/floor|scale/lattice-algebra .*zcyclic_n16\.json|integrals hopf_qc2\.json$)"
    a, b = sweep.sweep_trees(two_checkouts(tmp_path), match)
    name = "scale/lattice-algebra assoc-order zcyclic_n16.json --order group-ring"
    scaled = {name: name.split(" ", 1)[1], name + " --json": name.split(" ", 1)[1] + " --json",
              sweep.FLOOR: ""}
    assert sorted(a) == sorted(b) == sorted([*scaled, "integrals hopf_qc2.json"])
    # the identity case runs once in each tree; then, in rounds over the
    # scaling group, each case runs in A then B, B then A, A then B
    assert sorted(calls[:2]) == [("A", "integrals hopf_qc2.json"), ("B", "integrals hopf_qc2.json")]
    assert calls[2:] == [(side, argv) for order in ("AB", "BA", "AB")
                         for argv in scaled.values() for side in order]
    # each tree's record holds its own runs, in today's format
    for case, argv in scaled.items():
        for side, record in (("A", a), ("B", b)):
            assert record[case]["stdout"] == side
            assert record[case]["time_s_runs"] == [
                float(k) for k, call in enumerate(calls, start=1) if call == (side, argv)]
            assert record[case] == sweep.merged([
                {"exit": 0, "stdout": side, "stderr": "", "time_s": t, "peak_rss_mb": 1.0}
                for t in record[case]["time_s_runs"]])


def test_alternate_writes_one_record_per_tree(tmp_path, monkeypatch, capsys):
    sweep = load_sweep()
    stub_runs(sweep, monkeypatch)
    repo_a, repo_b = two_checkouts(tmp_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert sweep.main(["--repo", str(repo_a), "--out", str(out_a),
                       "--alternate", str(repo_b), str(out_b), "--match", "^scale/floor"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"1 cases written to {out_a}", f"1 cases written to {out_b}"]
    a, b = (json.loads(out.read_text(encoding="utf-8")) for out in (out_a, out_b))
    assert (a[sweep.FLOOR]["stdout"], b[sweep.FLOOR]["stdout"]) == ("A", "B")
    assert a[sweep.FLOOR]["time_s_runs"] == [1.0, 4.0, 5.0]
    assert b[sweep.FLOOR]["time_s_runs"] == [2.0, 3.0, 6.0]
