"""Seeded inputs and expected verdicts of the benchmark workloads.

The seed sets all input variation: the command order of each `desk` pass,
the prime of `cyclic`, and p, q, p', q' of `taft`.  Every seed
gives the same shape of work, so traced work counts repeat across seeds.
hopfgal sees only the JSON files `write_inputs` produces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WHY = {
    "desk": "the 17 acceptance commands over Q, F_p and Z: loading, validation, argparse and rendering dominate",
    "cyclic": "cyclic --levels 5 over F_p: dense face, degeneracy and cyclic operators (kron, matmul) dominate",
    "taft": "verify and integrals on Taft algebras of dim 16 over F_p: hopf tensor_square_algebra dominates",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One `cli.main([*argv, "--json"])` call and what its report must say.

    `expect` maps a dotted path into the JSON report to the required
    value; a `*` segment applies the rest of the path to every list item.
    """

    argv: tuple
    code: int
    expect: dict


@dataclass
class Workload:
    params: dict
    files: dict  # file name -> bytes
    ops: tuple
    shuffle: bool
    rng: random.Random = field(repr=False)

    def next_pass(self):
        """Op indices of the next pass; `desk` shuffles each pass by the seed."""
        order = list(range(len(self.ops)))
        if self.shuffle:
            self.rng.shuffle(order)
        return order


def argv_in(op, directory):
    """The op's CLI arguments with its input files placed in `directory`."""
    return [str(Path(directory) / a) if a.endswith(".json") else a for a in op.argv] + ["--json"]


def write_inputs(workload, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in workload.files.items():
        (directory / name).write_bytes(data)


def _dump(doc):
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# desk: the acceptance commands on the fixture documents kept in data/desk

_CLASSIFIED = {"extension.classification": "tame+hopf-galois", "extension.tame": True}
_CYCLIC_OK = {
    "ayd": True, "stable": True, "warning": None,
    "per_level.*.simplicial": True, "per_level.*.rotation": True,
    "per_level.*.cyclicity_on_cotensor": True,
}
DESK_OPS = (
    Op(("verify", "hopf_sweedler.json"), 0, {"passed": True}),
    Op(("verify", "hopf_qc2.json"), 0, {"passed": True}),
    Op(("verify", "hopf_sweedler_bad_antipode.json"), 1, {"passed": False}),
    Op(("integrals", "hopf_qc2.json"), 0, {"dim_left": 1, "dim_right": 1, "semisimple": True}),
    Op(("integrals", "hopf_sweedler.json"), 0, {"dim_left": 1, "dim_right": 1, "semisimple": False}),
    Op(("integrals", "hopf_f2c2.json"), 0, {"dim_left": 1, "dim_right": 1, "semisimple": False}),
    Op(("tame", "ext_f4.json"), 0, _CLASSIFIED),
    Op(("tame", "ext_trunc.json"), 0, _CLASSIFIED),
    Op(("galois", "ext_gaussian.json"), 0, _CLASSIFIED),
    Op(("galois", "ext_trivial.json"), 0,
       {"extension.classification": "not-an-extension", "extension.tame": False}),
    Op(("homology", "mod_trivial_f2c2.json"), 0, {"dim_h0": 1}),
    Op(("homology", "mod_regular_sweedler.json"), 0, {"dim_h0": 0}),
    Op(("homology", "lat_zi_qc2.json"), 0, {"invariant_factors": [2], "tame": False}),
    Op(("cyclic", "comodalg_graded_f3.json", "--module", "mod_kc2_ayd_f3.json", "--levels", "2"),
       0, _CYCLIC_OK),
    Op(("bar-shift", "ext_gaussian.json", "--module", "smashmod_sum.json", "--levels", "3"),
       0, {"dims_match": True, "iso_bijective": [True] * 4, "passed": True}),
    Op(("assoc-order", "lat_zi_qc2.json", "--candidates"), 0,
       {"tame.tame": True, "tame.invariant_factors": [], "hopf_order.is_hopf_order": True}),
    Op(("assoc-order", "lat_zzeta3_qc2.json", "--order", "group-ring", "--candidates"), 0,
       {"tame.tame": True, "tame.invariant_factors": [], "hopf_order.is_hopf_order": True}),
)


def _desk(rng):
    files = {p.name: p.read_bytes() for p in sorted((DATA / "desk").glob("*.json"))}
    return {}, files, DESK_OPS


# ---------------------------------------------------------------------------
# cyclic: the graded line k[x]/(x^2 - 1) as a kC2-comodule algebra over F_p,
# with stable anti-Yetter-Drinfeld coefficients; only the field changes

# Products of residues below 17 stay below 257, inside CPython's small-int
# cache, so no seed allocates more int objects than another.
ODD_PRIMES = (3, 5, 7, 11, 13, 17)
_C2 = {"name": "group_algebra", "table": [[0, 1], [1, 0]], "labels": ["e", "s"]}
_LINE_MULT = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]
_GRADING = [[0, 0, 0, "1"], [1, 1, 1, "1"]]
CYCLIC_LEVELS = 5


def _cyclic(rng):
    p = rng.choice(ODD_PRIMES)
    algebra = {
        "field": {"kind": "Fp", "p": p},
        "hopf": _C2,
        "algebra": {"dim": 2, "basis": ["1", "x"], "mult": _LINE_MULT + [[1, 1, 0, "1"]],
                    "unit": ["1", "0"]},
        "coaction": _GRADING,
    }
    module = {"module": {"dim": 2, "action": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 0, "1"],
                                              [1, 1, 1, "1"]],
                         "coaction": _GRADING}}
    files = {"comodalg.json": _dump(algebra), "ayd.json": _dump(module)}
    expect = dict(_CYCLIC_OK, levels=CYCLIC_LEVELS)
    expect["per_level.*.t_preserves_cotensor"] = True
    op = Op(("cyclic", "comodalg.json", "--module", "ayd.json", "--levels", str(CYCLIC_LEVELS)),
            0, expect)
    return {"p": p}, files, (op,)


# ---------------------------------------------------------------------------
# taft: Taft algebras T_4(q) of dimension 16 over F_p with p = 1 mod 4

TAFT_PRIMES = tuple(p for p in ODD_PRIMES if p % 4 == 1)
TAFT_N = 4


def _fourth_root(rng, p):
    """A primitive 4th root of unity mod p, i.e. a root of q^2 = -1."""
    return rng.choice([q for q in range(2, p) if q * q % p == p - 1])


def _taft(rng):
    p, p2 = rng.choice(TAFT_PRIMES), rng.choice(TAFT_PRIMES)
    q, q2 = _fourth_root(rng, p), _fourth_root(rng, p2)
    taft = {"field": {"kind": "Fp", "p": p},
            "builtin": {"name": "taft", "n": TAFT_N, "q": str(q)}}
    dual = {"field": {"kind": "Fp", "p": p2},
            "builtin": {"name": "dual", "of": {"name": "taft", "n": TAFT_N, "q": str(q2)}}}
    files = {"taft.json": _dump(taft), "taft_dual.json": _dump(dual)}
    integrals = {"dim_left": 1, "dim_right": 1, "semisimple": False}
    ops = (
        Op(("verify", "taft.json"), 0, {"passed": True}),
        Op(("integrals", "taft.json"), 0, integrals),
        Op(("integrals", "taft_dual.json"), 0, integrals),
    )
    return {"p": p, "q": q, "p_dual": p2, "q_dual": q2}, files, ops


_BUILDERS = {"desk": _desk, "cyclic": _cyclic, "taft": _taft}


def generate(name, seed):
    """The workload `name` for `seed`; equal seeds give equal inputs."""
    rng = random.Random(f"{name}:{seed}")
    params, files, ops = _BUILDERS[name](rng)
    return Workload(params, files, tuple(ops), name == "desk", rng)
