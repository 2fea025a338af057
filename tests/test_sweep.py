"""``tools/sweep.py`` on two tiny cases, so that the sweep cannot rot.

The full sweep runs thousands of fresh processes and stays outside the
suite; here the tool runs end to end on one command in text and in
``--json`` form, and ``--compare`` finds a record equal to itself, lists
the cases whose exit code moved, groups them in its summary and prints
the median time and peak RSS ratios of each command.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "sweep.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=300)


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
    # each case is timed, and its child's peak RSS is read from os.wait4
    for case in record.values():
        assert 0 < case["time_s"] < 300
        assert 0 < case["peak_rss_mb"] < 1000

    same = run_tool("--compare", str(out), str(out))
    assert same.returncode == 0
    assert same.stdout.splitlines() == [
        "integrals: time x1.000, peak RSS x1.000 (median of 2)",
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
        "integrals: time x1.500, peak RSS x1.000 (median of 2)",
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
        "integrals: time x1.500, peak RSS x1.000 (median of 2)",
        "3 of 3 cases differ"]


def test_scale_group_runs_its_own_builtin_specs(tmp_path):
    out = tmp_path / "scale.json"
    proc = run_tool("--out", str(out), "--match", r"^scale/taft verify taft_n16_F97\.json$")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record) == ["scale/taft verify taft_n16_F97.json"]
    assert record["scale/taft verify taft_n16_F97.json"]["exit"] == 0
