#!/usr/bin/env python3
"""Byte-identity sweep of the hopfgal CLI, one fresh process per case.

Runs a fixed set of CLI cases against the source tree of one checkout
and records, for each case, its exit code, a hash of its stdout, a hash of
its stderr with the ``# elapsed`` line removed, its wall time and the
child's peak RSS (``ru_maxrss`` from ``os.wait4``; Linux carries the
sweep's own RSS at the fork into it, so a case that needs less reads as
that floor).  Two records of the same case set, one per checkout, then
show every report, message and exit code that a change moved, and how
time and memory moved.

    python tools/sweep.py --repo PATH --out FILE [--match REGEX]
    python tools/sweep.py --compare A B

``--match scale/`` runs only the scaling group, whose records are the
``BENCH_*.json`` files at the repository root.

Each case runs ``python -m hopfgal.cli`` with the checkout's ``src`` on
PYTHONPATH, from a work directory that holds the checkout's fixtures
and generated builtin specs, so the paths in reports are relative and do
not depend on where the checkout lives.  PYTHONPYCACHEPREFIX names a
fresh empty directory per case and PYTHONDONTWRITEBYTECODE is set, so
no case reads bytecode, from the checkout or from an earlier case.  Two
cases run at once, except the scaling group, whose cases run one at a
time after the others.  A case that runs past TIMEOUT seconds is
recorded with the exit code "timeout".

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
  (--max-dim 2000000), and ``verify`` on builtin Taft algebras n = 16,
  24 and 32 over F_97 and on their duals.

Every case runs in text and in ``--json`` form.  ``--compare`` prints
one line per case whose exit code or hashes differ or that only one
record holds, then one line per group of those cases with the same
command, first fixture and exit transition, with its count; then, for
each command (or scaling series), the median ratio B/A of the wall
time and of the peak RSS over the cases both records timed.  It exits 1
when a case differs, else 0.
"""

import argparse
import collections
import concurrent.futures
import hashlib
import json
import os
import pathlib
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
    for size in range(2, 65):
        table = [[(i + j) % size for j in range(size)] for i in range(size)]
        for label, field in (("Q", {"kind": "Q"}), ("F3", {"kind": "Fp", "p": 3})):
            specs[f"cyclic_N{size}_{label}.json"] = (
                field, {"name": "group_algebra", "table": table})
    return with_duals(specs)


def with_duals(specs):
    """File name -> document of each builtin spec and of its dual."""
    out = {}
    for name, (field, spec) in specs.items():
        out[name] = {"field": field, "builtin": spec}
        out[f"dual_{name}"] = {"field": field, "builtin": {"name": "dual", "of": spec}}
    return out


def scale_specs():
    """File name -> document of the Taft algebras of the scaling group."""
    p = SCALE_TAFT_P
    return with_duals({
        f"taft_n{n}_F{p}.json": ({"kind": "Fp", "p": p},
                                 {"name": "taft", "n": n, "q": str(least_primitive_root(p, n))})
        for n in SCALE_TAFT_N})


def scale_cases():
    """Case name -> argv of the scaling group, without the --json form."""
    cases = {}
    for level in SCALE_CYCLIC_LEVELS:
        argv = ["cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json",
                "--levels", str(level), "--max-dim", "2000000"]
        cases["scale/cyclic " + " ".join(argv)] = argv
    for name in scale_specs():
        series = "dual-taft" if name.startswith("dual_") else "taft"
        cases[f"scale/{series} verify {name}"] = ["verify", name]
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


def run_case(repo, workdir, argv):
    """The exit code, the stdout and stderr hashes, the wall time (s) and
    the peak RSS (MB) of one fresh CLI run."""
    with (tempfile.TemporaryDirectory(prefix="pycache-") as cache,
          tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("PYTHON", "HOPFGAL_"))}
        env.update(PYTHONPATH=str(repo / "src"), PYTHONPYCACHEPREFIX=cache,
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hopfgal.cli", *argv], cwd=workdir,
                                env=env, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: a late kill sends nothing
        timer.cancel()
        if proc.returncode < 0 and wall >= TIMEOUT:
            return {"exit": "timeout", "stdout": None, "stderr": None}
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode("utf-8"), err.read().decode("utf-8")
    stderr = "".join(line for line in stderr.splitlines(keepends=True)
                     if not line.startswith("# elapsed"))
    return {"exit": proc.returncode, "stdout": digest(stdout), "stderr": digest(stderr),
            "time_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}


def sweep(repo, match=None):
    """Case name -> record of every case (or of those `match` finds)."""
    repo = pathlib.Path(repo).resolve()
    with tempfile.TemporaryDirectory(prefix="sweep-") as workdir:
        fixtures = sorted(p.name for p in (repo / "tests" / "fixtures").glob("*.json"))
        for name in fixtures:
            shutil.copyfile(repo / "tests" / "fixtures" / name, pathlib.Path(workdir) / name)
        builtins = builtin_specs()
        for name, doc in {**builtins, **scale_specs()}.items():
            (pathlib.Path(workdir) / name).write_text(json.dumps(doc), encoding="utf-8")
        argvs = {" ".join(argv): argv for argv in case_argvs(fixtures, list(builtins))}
        scaled = {name + form: argv + form.split()
                  for name, argv in scale_cases().items() for form in ("", " --json")}
        if match is not None:
            argvs, scaled = ({name: argv for name, argv in cases.items() if re.search(match, name)}
                             for cases in (argvs, scaled))
        with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
            futures = {name: pool.submit(run_case, repo, workdir, argv)
                       for name, argv in argvs.items()}
            record = {name: future.result() for name, future in futures.items()}
        # one at a time, so that no other case shares the host with them
        record.update((name, run_case(repo, workdir, argv)) for name, argv in scaled.items())
        return record


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


def ratios(a, b):
    """One line per command (or scaling series), sorted, with the median
    ratio B/A of wall time and of peak RSS over the cases both timed."""
    pairs = collections.defaultdict(list)
    for name in sorted(a.keys() & b.keys()):
        if "time_s" in a[name] and "time_s" in b[name]:
            pairs[name.split()[0]].append((a[name], b[name]))
    lines = []
    for group, cases in sorted(pairs.items()):
        wall = statistics.median(y["time_s"] / x["time_s"] for x, y in cases)
        rss = statistics.median(y["peak_rss_mb"] / x["peak_rss_mb"] for x, y in cases)
        lines.append(f"{group}: time x{wall:.3f}, peak RSS x{rss:.3f} (median of {len(cases)})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(ROOT), help="checkout whose src/ and fixtures run")
    parser.add_argument("--out", help="file the JSON record is written to")
    parser.add_argument("--match", help="run only the cases whose name this regex finds")
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
    record = sweep(args.repo, args.match)
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(f"{len(record)} cases written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
