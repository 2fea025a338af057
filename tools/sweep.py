#!/usr/bin/env python3
"""Byte-identity sweep of the hopfgal CLI, one fresh process per case.

Runs a fixed set of CLI cases against the source tree of one checkout
and records, for each case, its exit code, a hash of its stdout, a hash of
its stderr with the ``# elapsed`` line removed, its wall time and the
child's peak RSS.  Two records of the same case set, one per checkout,
then show every report, message and exit code that a change moved, and
how time and memory moved.

    python tools/sweep.py --repo PATH --out FILE [--match REGEX]
    python tools/sweep.py --repo A --out FILE_A --alternate B FILE_B [--match REGEX]
    python tools/sweep.py --compare A B

``--match scale/`` runs only the scaling group, whose records are the
``BENCH_*.json`` files at the repository root.  With ``--alternate``, one
sweep runs two checkouts, each from its own copy of ``src`` and its own
work directory, and writes one record for each, in the same format: the
runs of each scaling case go to the two checkouts in the order A B, B A,
A B, so that host drift slower than a run reads the same in both records
instead of as a change, as it does when two sweeps run one after the
other.

Each case runs ``hopfgal.cli`` as ``__main__`` through a small launcher
(``LAUNCHER``), from a work directory that holds the checkout's fixtures,
the generated builtin specs and the generated lattice files, so the paths
in reports are relative and do not depend on where the checkout lives.
The sweep copies the checkout's ``src`` once, without ``__pycache__``,
and puts the copy on PYTHONPATH; PYTHONDONTWRITEBYTECODE is set, so the
copy stays without bytecode.  Each case then compiles hopfgal from source
and reads the standard library's installed bytecode, as a first run after
installation does: no case reads hopfgal bytecode, from the checkout or
from an earlier case, and none compiles the standard library.  Two
cases run at once, except the scaling group, whose cases run one at a
time after the others, SCALE_RUNS times each, in rounds over the group:
a scaling case records the median wall time and the largest peak RSS of
its runs, and each run's time and peak.  The scaling group holds the
floor case FLOOR, ``python -c pass`` started as the cases are (the
launcher without the CLI): the interpreter's own start, which every
case's time includes.  A case that runs past TIMEOUT
seconds is recorded with the exit code "timeout", and a scaling case
whose runs disagree in exit code or hashes with the exit code "unstable".

The peak RSS is the child's own ``VmHWM`` from ``/proc/self/status``,
which the launcher writes to a side file at exit, so stdout and stderr
are the CLI's alone.  ``ru_maxrss`` (from ``os.wait4``, or from
``getrusage`` in the child) would not do: Linux starts it at the
parent's RSS at the fork and keeps it across exec, so every case that
needs less than the sweep process would read as the sweep's own size.

The case set:

- every command on every fixture, and the commands that apply to each
  fixture again at --max-dim 1, 3 and 9, where most are refused;
- ``cyclic`` on every comodule-algebra and extension fixture with every
  module fixture at levels 0, 1, 2, 3, 5 and 8, and ``bar-shift`` on
  every extension fixture with every smash-module fixture at levels 0-9,
  each pair also at --max-dim 9;
- the lattice commands with each ``--order`` and candidate source;
- ``verify`` and ``integrals`` on builtin Taft algebras n = 2-8 over the
  three least primes p = 1 mod n (and n = 2 over Q), on C_N for
  N = 2-64 over Q and F_3, and on the dual of each, and on two of them
  at --max-dim 8;
- the scaling group, named ``scale/<series> <argv>``: ``cyclic`` on
  comodalg_graded_f3 with mod_kc2_ayd_f3 at levels 10, 12 and 14
  (--max-dim 2000000), ``verify`` and ``integrals`` on builtin Taft
  algebras n = 16, 24 and 32 over F_97 and on their duals, and
  ``verify`` and ``integrals`` on builtin C_N for N = 16, 64 and 256
  over Q and F_97, with ``integrals`` on their duals, and ``assoc-order``
  on generated Z lattice files over QC_2 of rank n = 16, 24, 32, 48 and
  64 whose basis is a random n x n matrix with entries in [-9, 9] (seeds
  1 and 4), ``assoc-order --order group-ring`` on Z[C_n] inside Q[C_n]
  for n = 16, 32, 64 and 128, whose ``algebra`` section runs the rational
  cross-check (``scale/lattice-algebra``), and the floor case.  Ranks 48
  and 64 run well above the floor, so a change in lattice arithmetic
  shows in their times.

Every case runs in text and in ``--json`` form.  ``--compare`` prints
one line per case whose exit code or hashes differ or that only one
record holds, then one line per group of those cases with the same
command, first fixture and exit transition, with its count; then, for
each command (or scaling series), the median ratio B/A of the
recorded wall time and peak RSS over the cases both records timed, and,
beside the time ratio, the interquartile range of the per-case time
ratios, the number of cases that B ran faster than A, and, when both
records hold the floor case, the median ratio of the time above each
record's floor.  It exits 1 when a case differs, else 0.
"""

import argparse
import collections
import concurrent.futures
import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = ("verify", "integrals", "tame", "galois", "homology", "cyclic", "bar-shift",
            "assoc-order")
# the commands that read each kind of fixture, by file-name prefix
APPLIES = {
    "hopf_": ("verify", "integrals"),
    "ext_": ("tame", "galois"),
    "mod_": ("homology",),
    "lat_": ("homology", "assoc-order"),
}
CYCLIC_LEVELS = (0, 1, 2, 3, 5, 8)
BAR_LEVELS = range(10)
REFUSAL_DIMS = (1, 3, 9)
JOBS = 2
TIMEOUT = 120
SCALE_CYCLIC_LEVELS = (10, 12, 14)
SCALE_TAFT_N = (16, 24, 32)
SCALE_TAFT_P = 97
SCALE_GROUP_N = (16, 64, 256)
SCALE_GROUP_FIELDS = (("Q", {"kind": "Q"}), ("F97", {"kind": "Fp", "p": 97}))
SCALE_LATTICE_N = (16, 24, 32, 48, 64)
SCALE_LATTICE_SEEDS = (1, 4)
SCALE_GROUP_RING_N = (16, 32, 64, 128)
SCALE_RUNS = 3
# python -c PEAK PEAK_FILE: write the process's peak RSS in kB (VmHWM) to
# PEAK_FILE at exit, and do nothing else
PEAK = """
import atexit, sys

def write_peak(path=sys.argv.pop(1)):
    with open("/proc/self/status", encoding="ascii") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(kb)

atexit.register(write_peak)
"""
# python -c LAUNCHER PEAK_FILE ARGS...: run hopfgal.cli ARGS... as `python -m`
# would, and write the peak as PEAK does
LAUNCHER = PEAK + """
import runpy
runpy.run_module("hopfgal.cli", run_name="__main__", alter_sys=True)
"""
# the floor case: PEAK alone, a `python -c pass` started as the cases are
FLOOR = "scale/floor python -c pass"


def primes_one_mod(n, count):
    """The `count` least primes p with p = 1 mod n."""
    out, p = [], 2
    while len(out) < count:
        if p % n == 1 and all(p % d for d in range(2, int(p ** 0.5) + 1)):
            out.append(p)
        p += 1
    return out


def least_primitive_root(p, n):
    """The least q mod p of multiplicative order exactly n."""
    return next(q for q in range(2, p)
                if pow(q, n, p) == 1 and all(pow(q, k, p) != 1 for k in range(1, n)))


def builtin_specs():
    """File name -> spec of each generated builtin Hopf algebra and its dual."""
    specs = {"taft_n2_Q.json": ({"kind": "Q"}, {"name": "taft", "n": 2, "q": "-1"})}
    for n in range(2, 9):
        for p in primes_one_mod(n, 3):
            q = least_primitive_root(p, n)
            specs[f"taft_n{n}_F{p}.json"] = (
                {"kind": "Fp", "p": p}, {"name": "taft", "n": n, "q": str(q)})
    specs.update(cyclic_group_specs(range(2, 65), (("Q", {"kind": "Q"}),
                                                   ("F3", {"kind": "Fp", "p": 3}))))
    return with_duals(specs)


def cyclic_group_specs(sizes, fields):
    """File name -> (field, spec) of the group algebra of C_N, for each size
    N and each (label, field) pair."""
    specs = {}
    for size in sizes:
        table = [[(i + j) % size for j in range(size)] for i in range(size)]
        for label, field in fields:
            specs[f"cyclic_N{size}_{label}.json"] = (
                field, {"name": "group_algebra", "table": table})
    return specs


def with_duals(specs):
    """File name -> document of each builtin spec and of its dual."""
    out = {}
    for name, (field, spec) in specs.items():
        out[name] = {"field": field, "builtin": spec}
        out[f"dual_{name}"] = {"field": field, "builtin": {"name": "dual", "of": spec}}
    return out


def scale_specs():
    """File name -> document of the Taft and group algebras of the scaling group."""
    p = SCALE_TAFT_P
    return with_duals({
        **{f"taft_n{n}_F{p}.json": ({"kind": "Fp", "p": p},
                                    {"name": "taft", "n": n, "q": str(least_primitive_root(p, n))})
           for n in SCALE_TAFT_N},
        **cyclic_group_specs(SCALE_GROUP_N, SCALE_GROUP_FIELDS)})


def lattice_specs():
    """File name -> Z lattice document over QC_2 of each rank n and seed of
    the scaling group: the basis is the rows of an n x n matrix with
    entries in [-9, 9] drawn by random.Random(seed), s acts by
    diag(1^(n/2), (-1)^(n/2)) and the unit is e_0."""
    specs = {}
    for n in SCALE_LATTICE_N:
        for seed in SCALE_LATTICE_SEEDS:
            rng = random.Random(seed)
            basis = [[str(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            diag = [[str(int(i == j) * (1 if i < n // 2 else -1)) for j in range(n)]
                    for i in range(n)]
            specs[f"zlattice_n{n}_seed{seed}.json"] = {
                "field": {"kind": "Z"},
                "hopf": {"name": "group_algebra", "table": [[0, 1], [1, 0]],
                         "labels": ["1", "s"]},
                "ambient_dim": n,
                "basis": basis,
                "action": [[[str(int(i == j)) for j in range(n)] for i in range(n)], diag],
                "unit": [str(int(i == 0)) for i in range(n)],
            }
    return specs


def permutation_rows(n, image):
    """The rows, as strings, of the n x n matrix of e_j -> e_image(j)."""
    return [[str(int(i == image(j))) for j in range(n)] for i in range(n)]


def group_ring_lattice_specs(sizes):
    """File name -> lattice document of Z[C_n] inside Q[C_n], for each size
    n: the standard basis, C_2 acting by t -> t^-1 (e_k -> e_(-k mod n)),
    the unit e_0, and an `algebra` section holding the product of Q[C_n],
    so `assoc-order` and lattice `homology` run the rational cross-check."""
    return {f"zcyclic_n{n}.json": {
        "field": {"kind": "Z"},
        "hopf": {"name": "group_algebra", "table": [[0, 1], [1, 0]], "labels": ["1", "s"]},
        "ambient_dim": n,
        "basis": permutation_rows(n, lambda j: j),
        "action": [permutation_rows(n, lambda j: j), permutation_rows(n, lambda j: -j % n)],
        "unit": [str(int(i == 0)) for i in range(n)],
        "algebra": {"dim": n, "unit": [str(int(i == 0)) for i in range(n)],
                    "mult": [[i, j, (i + j) % n, "1"] for i in range(n) for j in range(n)]},
    } for n in sizes}


def scale_cases():
    """Case name -> argv of the scaling group, without the --json form."""
    cases = {}
    for level in SCALE_CYCLIC_LEVELS:
        argv = ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json",
                "--levels", str(level), "--max-dim", "2000000"]
        cases["scale/cyclic " + " ".join(argv)] = argv
    for name in scale_specs():
        dual = "dual-" if name.startswith("dual_") else ""
        if "taft" in name:
            series, commands = "taft", ("verify", "integrals")
        else:
            series, commands = "group", ("integrals",) if dual else ("verify", "integrals")
        for command in commands:
            cases[f"scale/{dual}{series} {command} {name}"] = [command, name]
    for name in lattice_specs():
        cases[f"scale/lattice assoc-order {name}"] = ["assoc-order", name]
    for name in group_ring_lattice_specs(SCALE_GROUP_RING_N):
        argv = ["assoc-order", name, "--order", "group-ring"]
        cases["scale/lattice-algebra " + " ".join(argv)] = argv
    return cases


def case_argvs(fixtures, builtins):
    """Every case's argv, without the --json form, in a fixed order."""
    def kind(prefix):
        return [f for f in fixtures if f.startswith(prefix)]

    cases = [[command, f] for f in fixtures for command in COMMANDS]
    for prefix, commands in APPLIES.items():
        cases += [[command, f, "--max-dim", str(d)]
                  for f in kind(prefix) for command in commands for d in REFUSAL_DIMS]
    for algebra in kind("comodalg_") + kind("ext_"):
        for module in kind("mod_"):
            cases.append(["cyclic", algebra, "--module", module, "--max-dim", "9"])
            cases += [["cyclic", algebra, "--module", module, "--levels", str(level)]
                      for level in CYCLIC_LEVELS]
    for ext in kind("ext_"):
        for module in kind("smashmod_"):
            cases.append(["bar-shift", ext, "--module", module, "--max-dim", "9"])
            cases += [["bar-shift", ext, "--module", module, "--levels", str(level)]
                      for level in BAR_LEVELS]
    for lat in kind("lat_"):
        for order in ("group-ring", "associated"):
            cases.append(["homology", lat, "--order", order])
            cases += [["assoc-order", lat, "--order", order, *candidates]
                      for candidates in ([], ["--candidates"], ["--candidates", "1,0;0,1;1,1"])]
    cases += [[command, name] for name in builtins for command in ("verify", "integrals")]
    cases += [[command, name, "--max-dim", "8"]
              for name in ("taft_n3_F7.json", "dual_cyclic_N16_Q.json")
              for command in ("verify", "integrals")]
    return [argv + form for argv in cases for form in ([], ["--json"])]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(tree, workdir, argv, code=LAUNCHER):
    """The exit code, the stdout and stderr hashes, the wall time (s) and
    the peak RSS (MB) of one fresh CLI run of the hopfgal in tree/src
    (with code PEAK, of the bare interpreter)."""
    with (tempfile.TemporaryDirectory(prefix="case-") as scratch,
          tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err):
        peak = pathlib.Path(scratch) / "vmhwm"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("PYTHON", "HOPFGAL_"))}
        env.update(PYTHONPATH=str(pathlib.Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, str(peak), *argv], cwd=workdir,
                                env=env, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        proc.wait()  # reaped: a late kill sends nothing
        wall = time.perf_counter() - start
        timer.cancel()
        if proc.returncode < 0 and wall >= TIMEOUT:
            return {"exit": "timeout", "stdout": None, "stderr": None}
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode("utf-8"), err.read().decode("utf-8")
        peak_kb = int(peak.read_text(encoding="ascii"))
    stderr = "".join(line for line in stderr.splitlines(keepends=True)
                     if not line.startswith("# elapsed"))
    return {"exit": proc.returncode, "stdout": digest(stdout), "stderr": digest(stderr),
            "time_s": round(wall, 4), "peak_rss_mb": round(peak_kb / 1024, 2)}


def sweep(repo, match=None):
    """Case name -> record of every case (or of those `match` finds)."""
    return sweep_trees([repo], match)[0]


def sweep_trees(repos, match=None):
    """One record (case name -> record) per checkout in repos, each run
    from its own copy of src and its own work directory.  The identity
    cases of the checkouts go to the pool interleaved; each scaling
    case's runs go to the checkouts in turn, in the order of repos and
    then reversed, round by round (A B, B A, A B for two), so that host
    drift slower than a run falls on every checkout alike."""
    def picked(cases):
        return {name: case for name, case in cases.items()
                if match is None or re.search(match, name)}

    with tempfile.TemporaryDirectory(prefix="sweep-") as scratch:
        builtins = builtin_specs()
        generated = {**builtins, **scale_specs(), **lattice_specs(),
                     **group_ring_lattice_specs(SCALE_GROUP_RING_N)}
        scaled = {name + form: (LAUNCHER, argv + form.split())
                  for name, argv in scale_cases().items() for form in ("", " --json")}
        scaled = picked({**scaled, FLOOR: (PEAK, [])})
        sides = []
        for k, repo in enumerate(repos):
            repo = pathlib.Path(repo).resolve()
            tree, workdir = pathlib.Path(scratch, f"tree{k}"), pathlib.Path(scratch, f"work{k}")
            shutil.copytree(repo / "src", tree / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            workdir.mkdir()
            fixtures = sorted(p.name for p in (repo / "tests" / "fixtures").glob("*.json"))
            for name in fixtures:
                shutil.copyfile(repo / "tests" / "fixtures" / name, workdir / name)
            for name, doc in generated.items():
                (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
            argvs = {" ".join(argv): argv for argv in case_argvs(fixtures, list(builtins))}
            sides.append((tree, workdir, picked(argvs)))
        with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
            # the checkouts' cases interleaved, so that they share the host alike
            futures = [{} for _ in sides]
            for cases in itertools.zip_longest(*(argvs.items() for _, _, argvs in sides)):
                for k, case in enumerate(cases):
                    if case is not None:
                        tree, workdir, _ = sides[k]
                        futures[k][case[0]] = pool.submit(run_case, tree, workdir, case[1])
            records = [{name: future.result() for name, future in side.items()}
                       for side in futures]
        # one at a time, so that no other case shares the host with them
        runs = [{name: [] for name in scaled} for _ in sides]
        order = list(range(len(sides)))
        for _ in range(SCALE_RUNS):
            for name, (code, argv) in scaled.items():
                for k in order:
                    tree, workdir, _ = sides[k]
                    runs[k][name].append(run_case(tree, workdir, argv, code))
            order.reverse()
        for record, side_runs in zip(records, runs):
            record.update((name, merged(cases)) for name, cases in side_runs.items())
        return records


def merged(runs):
    """One record of the runs of a scaling case: the exit code and hashes
    they share, the median wall time and the largest peak RSS, and each
    run's time and peak, in run order."""
    first = runs[0]
    if any(run["exit"] == "timeout" for run in runs):
        return {"exit": "timeout", "stdout": None, "stderr": None}
    out = {key: first[key] for key in ("exit", "stdout", "stderr")}
    if any(run[key] != value for run in runs for key, value in out.items()):
        out["exit"] = "unstable"
    times, peaks = [run["time_s"] for run in runs], [run["peak_rss_mb"] for run in runs]
    return {**out, "time_s": statistics.median(times), "peak_rss_mb": max(peaks),
            "time_s_runs": times, "peak_rss_mb_runs": peaks}


def differences(a, b):
    """One (line, group) pair per case whose records differ or that one
    record lacks; the group is the case's command, its first fixture and
    its exit transition."""
    out = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            transition = "only in A"
            line = f"{transition}: {name}"
        elif name not in a:
            transition = "only in B"
            line = f"{transition}: {name}"
        elif moved := [field for field in ("exit", "stdout", "stderr")
                       if a[name][field] != b[name][field]]:
            transition = f"exit {a[name]['exit']} -> {b[name]['exit']}"
            line = f"{name}: {', '.join(moved)} differ ({transition})"
        else:
            continue
        argv = name.split()
        fixture = next((arg for arg in argv if arg.endswith(".json")), "")
        out.append((line, (argv[0], fixture, transition)))
    return out


def summary(groups):
    """One line per group, with its count, in the order groups first occur."""
    return [f"{count} x {command} {fixture}: {transition}"
            for (command, fixture, transition), count in collections.Counter(groups).items()]


def quartiles(values):
    """The first and third quartiles of the values, inclusive of their ends."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def ratios(a, b):
    """One line per command (or scaling series), sorted, with the median
    ratio B/A of the recorded wall time and peak RSS (for a scaling case,
    the median time and the largest peak of its runs) over the cases
    both timed.  The time ratio is followed by the interquartile range of
    the per-case time ratios and the number of cases B won (ran in less
    time than A), and, when both records timed the floor case, by the
    median ratio of the times above each record's floor, over the cases
    whose time lies above it in both records."""
    floors = [r[FLOOR]["time_s"] for r in (a, b) if "time_s" in r.get(FLOOR, {})]
    pairs = collections.defaultdict(list)
    for name in sorted(a.keys() & b.keys()):
        if "time_s" in a[name] and "time_s" in b[name]:
            pairs[name.split()[0]].append((a[name], b[name]))
    lines = []
    for group, cases in sorted(pairs.items()):
        times = [y["time_s"] / x["time_s"] for x, y in cases]
        wall = statistics.median(times)
        q1, q3 = quartiles(times)
        won = sum(y["time_s"] < x["time_s"] for x, y in cases)
        rss = statistics.median(y["peak_rss_mb"] / x["peak_rss_mb"] for x, y in cases)
        above = [(y["time_s"] - floors[1]) / (x["time_s"] - floors[0]) for x, y in cases
                 if len(floors) == 2 and x["time_s"] > floors[0] and y["time_s"] > floors[1]]
        beside = f" (x{statistics.median(above):.3f} above the floor)" if above else ""
        lines.append(f"{group}: time x{wall:.3f} (IQR x{q1:.3f}-x{q3:.3f}, won {won} of "
                     f"{len(cases)}){beside}, peak RSS x{rss:.3f} (median of {len(cases)})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(ROOT), help="checkout whose src/ and fixtures run")
    parser.add_argument("--out", help="file the JSON record is written to")
    parser.add_argument("--match", help="run only the cases whose name this regex finds")
    parser.add_argument("--alternate", nargs=2, metavar=("REPO", "OUT"),
                        help="a second checkout, whose scaling runs alternate with those of "
                             "--repo, and the file its record is written to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in args.compare)
        diffs = differences(a, b)
        for line in ([line for line, _ in diffs] + summary(group for _, group in diffs)
                     + ratios(a, b)):
            print(line)
        print(f"{len(diffs)} of {len(a.keys() | b.keys())} cases differ")
        return 1 if diffs else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    repos, outs = [args.repo], [args.out]
    if args.alternate:
        repos.append(args.alternate[0])
        outs.append(args.alternate[1])
    for record, out in zip(sweep_trees(repos, args.match), outs):
        pathlib.Path(out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
        print(f"{len(record)} cases written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
