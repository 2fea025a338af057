"""Command-line interface.

Subcommands: verify, integrals, galois, tame, homology, cyclic,
bar-shift, assoc-order.  Every command builds one report object; the
machine form (--json) is the canonical serialization of that object
and the human text is rendered from the same object, so reports are
reproducible byte for byte.  Elapsed time goes to stderr only, keeping
both output forms deterministic.

Exit codes: 0 success or expectation met, 1 theorem-level mismatch,
2 input error, 3 resource bound exceeded, 4 internal error (an
unexpected Python exception, reported on stderr with its traceback).

Only `files`, `hopf` and `linalg` are imported with this module; each
command imports the layers it reads (`actions`, `cocyclic`, `lattices`)
when it runs, so a command pays only for its own layers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import files, hopf, linalg
from .errors import (
    DEFAULT_MAX_DIM,
    AxiomError,
    FormatError,
    HopfgalError,
    PreconditionError,
    ResourceBoundError,
)

SCHEMA_VERSION = "1"
DEFAULT_LEVELS = 4


def _doc(command, path, **extra):
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "input": path}
    doc.update(extra)
    return doc


def _fmt_vec(domain, vec):
    return [domain.format(v) for v in vec]


def _witness_list(witness):
    if witness is None:
        return None
    return [w if isinstance(w, (int, str)) else str(w) for w in witness]


# ---------------------------------------------------------------------------
# commands


def _load_hopf_report(path, max_dim):
    """The Hopf data in `path` and its axiom report: the report the builtin
    constructors kept, or one `verify_hopf` run on explicit data."""
    domain, h = files.load_hopf_file(path, max_dim, validate=False)
    return domain, h, h.report if h.report is not None else hopf.verify_hopf(h)


def run_verify(args):
    try:
        _, _, report = _load_hopf_report(args.path, args.max_dim)
    except AxiomError as exc:
        doc = _doc(
            "verify",
            args.path,
            checks=[{"name": exc.check, "passed": False, "witness": _witness_list(exc.witness)}],
            passed=False,
        )
        return doc, 1
    checks = [
        {"name": c.name, "passed": c.passed, "witness": _witness_list(c.witness)}
        for c in report.checks
    ]
    doc = _doc("verify", args.path, checks=checks, passed=report.passed)
    return doc, 0 if report.passed else 1


def run_integrals(args):
    domain, h = files.load_hopf_file(args.path, args.max_dim)
    left = hopf.left_integrals(h)
    right = hopf.right_integrals(h)
    doc = _doc(
        "integrals",
        args.path,
        dim_left=left.dim,
        dim_right=right.dim,
        left_integral=h.format_element(left.basis[0]),
        left_integral_vector=_fmt_vec(domain, left.basis[0]),
        right_integral=h.format_element(right.basis[0]),
        right_integral_vector=_fmt_vec(domain, right.basis[0]),
        semisimple=hopf.is_semisimple(h),
    )
    return doc, 0


def _extension_dict(domain, report):
    return {
        "invariants_basis": [_fmt_vec(domain, v) for v in report.invariants_basis],
        "invariants_are_base": report.invariants_are_base,
        "faithful": report.faithful,
        "rank_equal": report.rank_equal,
        "integral_image_basis": [_fmt_vec(domain, v) for v in report.integral_image_basis],
        "integral_surjective": report.integral_surjective,
        "j_rank": report.j_rank,
        "j_bijective": report.j_bijective,
        "gamma_rank": report.gamma_rank,
        "gamma_bijective": report.gamma_bijective,
        "galois_form": report.galois_form,
        "is_extension": report.is_extension,
        "tame": report.tame,
        "hopf_galois": report.hopf_galois,
        "hopf_local": report.hopf_local,
        "hopf_cocommutative": report.hopf_cocommutative,
        "algebra_commutative": report.algebra_commutative,
        "hopf_semisimple": report.hopf_semisimple,
        "equivalence_applies": report.equivalence_applies,
        "classification": report.classification,
    }


def run_extension(args):
    """The galois and tame commands; they differ only in their name."""
    from . import actions

    command = args.command
    data = files.load_extension_file(args.path, args.max_dim)
    if data["module_algebra"] is None:
        raise FormatError(f"the {command} command needs an extension with an 'action'")
    d = data["module_algebra"]
    report = actions.classify_extension(d)
    ext = _extension_dict(data["domain"], report)
    expect = getattr(args, "expect", None)
    expect_met = None
    if expect is not None:
        if expect == "tame":
            expect_met = report.tame
        elif expect == "hopf-galois":
            expect_met = report.hopf_galois
        else:
            expect_met = not report.tame and not report.hopf_galois
    doc = _doc(
        command,
        args.path,
        extension=ext,
        homology_dim=len(report.invariants_basis) - len(report.integral_image_basis),
        expect=expect,
        expect_met=expect_met,
    )
    code = 0
    if expect is not None and not expect_met:
        code = 1
    return doc, code


def run_homology(args):
    data = files.load_document(args.path)
    if "ambient_dim" in data and "basis" in data:
        from . import lattices

        module, _ = files.load_lattice(data, args.max_dim)
        order_kind = args.order or "group-ring"
        if order_kind == "group-ring":
            order = lattices.group_ring_order(module.hopf)
        else:
            order = lattices.associated_order(module.hopf, module)
        report = lattices.tame_check_integral(order, module)
        doc = _doc(
            "homology",
            args.path,
            kind="lattice",
            order=order_kind,
            invariant_factors=list(report.invariant_factors),
            quotient_free_rank=report.quotient_free_rank,
            tame=report.tame,
            obstructed_primes=list(report.obstructed_primes),
        )
        return doc, 0
    from . import actions

    h, dim, action = files.load_module(data, args.max_dim)
    hom = actions.hopfological_homology_module(h, action)
    doc = _doc(
        "homology",
        args.path,
        kind="module",
        dim_fixed=hom.dim_fixed,
        dim_image=hom.dim_image,
        dim_h0=hom.dim_h0,
    )
    return doc, 0


def _levels(args):
    if args.levels < 0:
        raise FormatError(f"--levels must be 0 or more, not {args.levels}")
    return args.levels


def run_cyclic(args):
    from . import cocyclic

    top = _levels(args)
    data = files.load_extension_file(args.path, args.max_dim)
    S = data["comodule_algebra"]
    # without a coaction, S is the module algebra read through the duality dictionary
    converted = S is None
    if converted:
        S = cocyclic.module_algebra_to_comodule_algebra(data["module_algebra"])
    if args.module is None:
        raise FormatError("the cyclic command needs --module")
    M = files.load_ayd_module(S.hopf, args.module, args.max_dim)
    max_dim = args.max_dim
    # the level-top identities reach level top + 1 (the pairs d_(top+1) s_j), bounded too;
    # level n has dimension dim(S)^(n+1) dim(M), so only a 1-dimensional S gets past level max_dim
    for n in range(min(top + 2, max_dim + 1)):
        dim = cocyclic._level_dim(S, M, n)
        if dim > max_dim:
            built_by = f" (the level {top} identities build it)" if n > top else ""
            raise ResourceBoundError(
                f"level {n} has dimension {dim} > bound {max_dim}{built_by}"
            )
    if top + 1 > max_dim:
        raise ResourceBoundError(f"--levels {top} builds {top + 1} levels > bound {max_dim}")
    ayd_ok, ayd_witness = M.ayd
    stable_ok = False
    if ayd_ok:
        stable_ok, _ = cocyclic.stability_check(M)
    per_level = []
    all_ok = True
    warning = None
    for n in range(top + 1):
        rep = cocyclic.check_cyclic_identities(S, M, n, max_dim)
        per_level.append(
            {
                "level": n,
                "dim": rep.dim,
                "cotensor_dim": rep.cotensor_dim,
                "simplicial": rep.simplicial_ok,
                "simplicial_witness": _witness_list(rep.simplicial_witness),
                "rotation": rep.rotation_ok,
                "cyclicity_on_cotensor": rep.cyclicity_ok,
                "cyclicity_witness": _witness_list(rep.cyclicity_witness),
                "t_preserves_cotensor": rep.t_preserves_cotensor,
            }
        )
        if not rep.cyclicity_ok:
            if ayd_ok and stable_ok:
                all_ok = False
            else:
                warning = (
                    "cyclicity fails on the cotensor, informational: the "
                    "coefficients are not a verified stable anti-Yetter-Drinfeld module"
                )
    doc = _doc(
        "cyclic",
        args.path,
        module=args.module,
        levels=top,
        converted_from_action=converted,
        ayd=ayd_ok,
        ayd_witness=_witness_list(ayd_witness),
        stable=stable_ok,
        per_level=per_level,
        warning=warning,
    )
    return doc, 0 if all_ok else 1


def run_bar_shift(args):
    from . import actions, cocyclic

    top = _levels(args)
    data = files.load_extension_file(args.path, args.max_dim)
    if data["module_algebra"] is None:
        raise FormatError("bar-shift needs an extension with an 'action'")
    d = data["module_algebra"]
    if args.module is None:
        raise FormatError("the bar-shift command needs --module")
    sm = actions.smash(d)
    module = files.load_smash_module_file(sm, args.module, args.max_dim)
    try:
        rep = cocyclic.bar_shift_check(d, module, top, args.max_dim)
    except PreconditionError as exc:
        doc = _doc(
            "bar-shift",
            args.path,
            module=args.module,
            levels=top,
            error=str(exc),
            hypothesis="j : S#H -> End(S) bijective (Morita lemma hypothesis)",
        )
        return doc, 1
    passed = rep.dims_match and all(rep.iso_bijective)
    doc = _doc(
        "bar-shift",
        args.path,
        module=args.module,
        levels=top,
        dims_module=list(rep.dims_module),
        dims_fixed_shifted=list(rep.dims_fixed),
        dims_match=rep.dims_match,
        morita_bijective=rep.morita_bijective,
        dim_module=rep.dim_module,
        dim_fixed=rep.dim_fixed,
        iso_bijective=list(rep.iso_bijective),
        differential_compat=list(rep.differential_compat),
        passed=passed,
    )
    return doc, 0 if passed else 1


def _parse_inline_candidates(spec, dim):
    out = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        entries = [e.strip() for e in part.split(",")]
        if len(entries) != dim:
            raise FormatError(f"candidate {part!r} must have {dim} entries")
        try:
            out.append(tuple(linalg.QQ.parse(e) for e in entries))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"candidate {part!r} is not a vector over Q: {exc}") from exc
    return out


def run_assoc_order(args):
    from . import lattices

    module, file_candidates = files.load_lattice_file(args.path, args.max_dim)
    h = module.hopf
    order_kind = args.order or "associated"
    if order_kind == "group-ring":
        order = lattices.group_ring_order(h)
    else:
        order = lattices.associated_order(h, module)
    hopf_order = order.hopf_order
    doc = _doc(
        "assoc-order",
        args.path,
        order_kind=order_kind,
        order_basis=[h.format_element(g) for g in order.lattice.generators()],
        order_basis_vectors=[_fmt_vec(linalg.QQ, g) for g in order.lattice.generators()],
        hopf_order={
            "contains_unit": hopf_order.contains_unit,
            "mult_closed": hopf_order.mult_closed,
            "comult_stable": hopf_order.comult_stable,
            "counit_integral": hopf_order.counit_integral,
            "antipode_stable": hopf_order.antipode_stable,
            "is_hopf_order": hopf_order.is_hopf_order,
            "witness": _witness_list(hopf_order.witness),
        },
    )
    if not hopf_order.is_hopf_order:
        doc["integral_generator"] = None
        doc["tame"] = None
        return doc, 0
    tame = lattices.tame_check_integral(order, module)
    doc["integral_generator"] = h.format_element(tame.integral_generator)
    doc["integral_generator_vector"] = _fmt_vec(linalg.QQ, tame.integral_generator)
    doc["tame"] = {
        "tame": tame.tame,
        "fixed_rank": tame.fixed_rank,
        "fixed_is_base": tame.fixed_is_base,
        "rank_equal": tame.rank_equal,
        "faithful": tame.faithful,
        "invariant_factors": list(tame.invariant_factors),
        "quotient_free_rank": tame.quotient_free_rank,
        "obstructed_primes": list(tame.obstructed_primes),
        "rational_tame": tame.rational_tame,
    }
    candidates = None
    if args.candidates is not None:
        if args.candidates == "file":
            candidates = file_candidates
        else:
            candidates = _parse_inline_candidates(args.candidates, module.lattice.ambient_dim)
    if candidates:
        if tame.tame:
            result = lattices.free_rank_one_generator(order, module, tame, candidates)
            doc["free_generator"] = (
                None
                if result.generator is None
                else {
                    "element": _fmt_vec(linalg.QQ, result.generator),
                    "determinant": result.determinant,
                }
            )
        else:
            doc["free_generator"] = None
    return doc, 0


# ---------------------------------------------------------------------------
# rendering


def render_human(doc):
    """Human rendering; a pure function of the report object."""
    lines = [f"hopfgal {doc['command']}: {doc['input']}"]
    command = doc["command"]
    if command == "verify":
        for check in doc["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            witness = "" if check["witness"] is None else f"  witness {check['witness']}"
            lines.append(f"  {check['name']}: {status}{witness}")
        lines.append(f"result: {'all axioms pass' if doc['passed'] else 'axiom failure'}")
    elif command == "integrals":
        lines.append(f"  left integral: {doc['left_integral']} (dimension {doc['dim_left']})")
        lines.append(f"  right integral: {doc['right_integral']} (dimension {doc['dim_right']})")
        lines.append(f"  semisimple: {str(doc['semisimple']).lower()}")
    elif command in ("galois", "tame"):
        ext = doc["extension"]
        for key in (
            "invariants_are_base",
            "faithful",
            "rank_equal",
            "integral_surjective",
            "j_bijective",
            "gamma_bijective",
            "tame",
            "hopf_galois",
            "hopf_local",
            "hopf_cocommutative",
            "equivalence_applies",
        ):
            lines.append(f"  {key.replace('_', ' ')}: {str(ext[key]).lower()}")
        lines.append(f"  j rank: {ext['j_rank']}  gamma rank: {ext['gamma_rank']}")
        lines.append(f"  galois form: {ext['galois_form']}")
        lines.append(f"  hopfological homology dimension: {doc['homology_dim']}")
        lines.append(f"classification: {ext['classification']}")
        if doc["expect"] is not None:
            lines.append(
                f"expected {doc['expect']}: {'met' if doc['expect_met'] else 'NOT MET'}"
            )
    elif command == "homology":
        if doc["kind"] == "lattice":
            lines.append(f"  order: {doc['order']}")
            lines.append(f"  invariant factors: {doc['invariant_factors']}")
            lines.append(f"  quotient free rank: {doc['quotient_free_rank']}")
            lines.append(f"  obstructed primes: {doc['obstructed_primes']}")
            lines.append(f"  tame: {str(doc['tame']).lower()}")
        else:
            lines.append(f"  dim V^H: {doc['dim_fixed']}")
            lines.append(f"  dim I.V: {doc['dim_image']}")
            lines.append(f"H_0 dimension: {doc['dim_h0']}")
    elif command == "cyclic":
        lines.append(f"  module: {doc['module']}")
        lines.append(f"  converted from action: {str(doc['converted_from_action']).lower()}")
        lines.append(
            f"  coefficients: ayd {str(doc['ayd']).lower()}, stable {str(doc['stable']).lower()}"
        )
        for level in doc["per_level"]:
            verdicts = (
                f"simplicial {'pass' if level['simplicial'] else 'FAIL'}, "
                f"rotation {'pass' if level['rotation'] else 'FAIL'}, "
                f"cyclicity {'pass' if level['cyclicity_on_cotensor'] else 'FAIL'}"
            )
            lines.append(
                f"  level {level['level']}: dim {level['dim']}, "
                f"cotensor {level['cotensor_dim']}: {verdicts}"
            )
        if doc.get("warning"):
            lines.append(f"warning: {doc['warning']}")
    elif command == "bar-shift":
        if "error" in doc:
            lines.append(f"  error: {doc['error']}")
            lines.append(f"  failed hypothesis: {doc['hypothesis']}")
        else:
            lines.append(f"  module: {doc['module']}")
            lines.append(f"  dim B_n(S, M): {doc['dims_module']}")
            lines.append(f"  dim B_(n+1)(S, M^H): {doc['dims_fixed_shifted']}")
            lines.append(f"  dimensions match: {str(doc['dims_match']).lower()}")
            lines.append(
                f"  morita: dim M = {doc['dim_module']} = "
                f"{doc['dim_fixed']} * dim S, bijective {str(doc['morita_bijective']).lower()}"
            )
            lines.append(f"  degreewise isomorphism: {doc['iso_bijective']}")
            lines.append(f"  differential compatibility (informational): {doc['differential_compat']}")
            lines.append(f"result: {'pass' if doc['passed'] else 'FAIL'}")
    elif command == "assoc-order":
        lines.append(f"  order: {doc['order_kind']}")
        lines.append(f"  basis: {doc['order_basis']}")
        ho = doc["hopf_order"]
        lines.append(f"  hopf order: {str(ho['is_hopf_order']).lower()}")
        for key in ("contains_unit", "mult_closed", "comult_stable", "counit_integral", "antipode_stable"):
            lines.append(f"    {key.replace('_', ' ')}: {str(ho[key]).lower()}")
        if doc.get("integral_generator") is not None:
            lines.append(f"  integral generator: {doc['integral_generator']}")
            tame = doc["tame"]
            lines.append(f"  tame: {str(tame['tame']).lower()}")
            lines.append(f"  invariant factors: {tame['invariant_factors']}")
            lines.append(f"  obstructed primes: {tame['obstructed_primes']}")
            if tame["rational_tame"] is not None:
                lines.append(f"  rational (field) case tame: {str(tame['rational_tame']).lower()}")
            if "free_generator" in doc:
                fg = doc["free_generator"]
                if fg is None:
                    lines.append("  free generator: none found (inconclusive)")
                else:
                    lines.append(
                        f"  free generator: {fg['element']} (determinant {fg['determinant']})"
                    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# the handler of each command, looked up in this module's namespace when the
# command runs: the cached parser holds no function, and a patched run_* runs
HANDLERS = {
    "verify": "run_verify",
    "integrals": "run_integrals",
    "galois": "run_extension",
    "tame": "run_extension",
    "homology": "run_homology",
    "cyclic": "run_cyclic",
    "bar-shift": "run_bar_shift",
    "assoc-order": "run_assoc_order",
}


@functools.cache
def build_parser():
    """The one argument parser of the process; parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="Exact verification of Hopf-algebraic extensions at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("path", help="input JSON file")
        p.add_argument("--json", action="store_true", help="print the canonical JSON report")
        p.add_argument(
            "--max-dim",
            type=int,
            default=None,
            help="per-level dimension bound (default 5000, env HOPFGAL_MAX_DIM)",
        )
        return p

    add("verify", help="check all Hopf axioms of an algebra file")
    add("integrals", help="print the one-dimensional integral spaces")
    for name in ("galois", "tame"):
        p = add(name, help="classify an extension file")
        p.add_argument("--expect", choices=["tame", "hopf-galois", "neither"], default=None)
    p = add("homology", help="Hopfological homology of a module or lattice file")
    p.add_argument("--order", choices=["group-ring", "associated"], default=None)
    p = add("cyclic", help="face/degeneracy/cyclic identity checks")
    p.add_argument("--module", default=None, help="AYD coefficient file")
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p = add("bar-shift", help="degreewise bar-shift verification")
    p.add_argument("--module", default=None, help="smash module file")
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p = add("assoc-order", help="associated order pipeline over Z")
    p.add_argument("--order", choices=["group-ring", "associated"], default=None)
    p.add_argument(
        "--candidates",
        nargs="?",
        const="file",
        default=None,
        help="free-generator candidates: 'file' or inline 'a,b;c,d'",
    )
    return parser


def _max_dim(args):
    """The dimension bound: --max-dim, else HOPFGAL_MAX_DIM, else the
    default; a bound below 1 is an input error."""
    name, value = "--max-dim", args.max_dim
    if value is None:
        name, env = "HOPFGAL_MAX_DIM", os.environ.get("HOPFGAL_MAX_DIM")
        if not env:
            return DEFAULT_MAX_DIM
        try:
            value = int(env)
        except ValueError:
            raise FormatError(f"HOPFGAL_MAX_DIM must be an integer, not {env!r}") from None
    if value < 1:
        raise FormatError(f"{name} must be at least 1, not {value}")
    return value


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        args.max_dim = _max_dim(args)
        doc, code = globals()[HANDLERS[args.command]](args)
    except ResourceBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        return 1
    except HopfgalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4
    if args.json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(render_human(doc))
    print(f"# elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
