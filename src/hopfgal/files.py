"""JSON input formats for the command-line interface.

One file describes one object.  Scalars are strings like "3" or
"-1/2" (plain JSON integers are also accepted); floats are rejected.
Tensors are sparse entry lists ordered input indices, output index,
coefficient:

* mult entry [i, j, k, c]: e_i e_j contains c e_k
* comult entry [i, j, k, c]: Delta(e_i) contains c e_j (x) e_k
* antipode entry [i, j, c]: alpha(e_i) contains c e_j
* action entry [h, s, t, c]: e_h . e_s contains c e_t
* coaction entry [m, m2, h, c]: rho(e_m) contains c e_m2 (x) e_h

Each index is checked against the dimension of its own axis: in an
action entry h < dim H and s, t < dim S (or dim M); in a coaction entry
m, m2 < dim M and h < dim H.  An index out of range is an input error
(exit code 2), never silently dropped.

Hopf algebras are either explicit or builtin:
{"name": "group_algebra", "table": [[...]], "labels": [...]},
{"name": "sweedler"}, {"name": "taft", "n": 3, "q": "2"},
{"name": "dual", "of": {...}}.
"""

from __future__ import annotations

import json

from . import actions, cocyclic, hopf, lattices
from .errors import FormatError, HopfgalError
from .linalg import GF, QQ, ZZ, Matrix


def _require_object(value, what):
    if not isinstance(value, dict):
        raise FormatError(f"{what} must hold a JSON object, not {type(value).__name__}")
    return value


def _int_field(obj, key, what):
    """obj[key] as a JSON integer; bools, floats and strings are refused."""
    value = obj[key]
    if type(value) is not int:
        raise FormatError(f"{what} '{key}' must be a JSON integer, not {value!r}")
    return value


def parse_field(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("field spec must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Q":
        return QQ
    if kind == "Z":
        return ZZ
    if kind == "Fp":
        if "p" not in obj:
            raise FormatError("prime field spec needs 'p'")
        return GF(_int_field(obj, "p", "prime field spec"))
    raise FormatError(f"unknown field kind {kind!r}")


def _parse_scalar(domain, value):
    if isinstance(value, float):
        raise FormatError(f"floating point scalar {value!r} rejected; use strings")
    if isinstance(value, str):
        return domain.parse(value)
    if isinstance(value, int):
        return domain.normalize(value)
    raise FormatError(f"scalar {value!r} must be a string")


def _parse_vector(domain, values, length, what):
    if not isinstance(values, list) or len(values) != length:
        raise FormatError(f"{what} must be a list of length {length}")
    return tuple(_parse_scalar(domain, v) for v in values)


def _parse_entries(domain, entries, arity, what):
    if not isinstance(entries, list):
        raise FormatError(f"{what} must be a list of entries")
    out = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise FormatError(f"{what} entry {entry!r} must have {arity + 1} items")
        idx = entry[:-1]
        if any(not isinstance(i, int) for i in idx):
            raise FormatError(f"{what} entry {entry!r} has non-integer indices")
        out.append(tuple(idx) + (_parse_scalar(domain, entry[-1]),))
    return out


def load_algebra(domain, obj, what="algebra"):
    _require_object(obj, what)
    for key in ("dim", "mult", "unit"):
        if key not in obj:
            raise FormatError(f"{what} needs '{key}'")
    dim = _int_field(obj, "dim", what)
    labels = obj.get("basis") or [f"e{i}" for i in range(dim)]
    if len(labels) != dim:
        raise FormatError(f"{what} basis labels must match dim")
    mult = _parse_entries(domain, obj["mult"], 3, f"{what} mult")
    unit = _parse_vector(domain, obj["unit"], dim, f"{what} unit")
    return hopf.algebra_from_triples(domain, dim, tuple(labels), mult, unit)


def load_hopf(domain, obj, validate=True):
    """Hopf algebra from a builtin spec or explicit structure constants.

    With validate=False the explicit route returns unchecked data so
    the verify command can report the failing axiom itself.
    """
    if not isinstance(obj, dict):
        raise FormatError("hopf spec must be an object")
    if "name" in obj:
        name = obj["name"]
        if name == "group_algebra":
            table = obj.get("table")
            if not isinstance(table, list):
                raise FormatError("group_algebra needs a 'table'")
            labels = obj.get("labels")
            return hopf.group_algebra(domain, table, tuple(labels) if labels else None)
        if name == "sweedler":
            return hopf.sweedler(domain)
        if name == "taft":
            if "n" not in obj or "q" not in obj:
                raise FormatError("taft needs 'n' and 'q'")
            return hopf.taft(domain, _int_field(obj, "n", "taft"), _parse_scalar(domain, obj["q"]))
        if name == "dual":
            if "of" not in obj:
                raise FormatError("dual needs 'of'")
            return hopf.dual(load_hopf(domain, obj["of"]))
        raise FormatError(f"unknown builtin {name!r}")
    for key in ("comult", "counit", "antipode"):
        if key not in obj:
            raise FormatError(f"explicit hopf data needs '{key}'")
    alg = load_algebra(domain, obj, "hopf algebra")
    n = alg.dim
    comult = hopf.dense_tensor_from_triples(
        domain, (n, n, n), _parse_entries(domain, obj["comult"], 3, "comult")
    )
    counit = _parse_vector(domain, obj["counit"], n, "counit")
    anti = hopf.dense_tensor_from_triples(
        domain, (n, n), _parse_entries(domain, obj["antipode"], 2, "antipode")
    )
    antipode = Matrix.from_cols(domain, anti, n)
    if validate:
        return hopf.build_hopf(alg, comult, counit, antipode)
    return hopf.HopfAlgebraData(alg, comult, counit, antipode)


def load_document(path):
    """The JSON object in the file at `path`; anything else is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    return _require_object(doc, path)


def load_hopf_file(path, validate=True):
    doc = load_document(path)
    if "field" not in doc:
        raise FormatError("file needs a 'field'")
    domain = parse_field(doc["field"])
    spec = doc.get("builtin", doc)
    return domain, load_hopf(domain, spec, validate=validate)


def load_extension_file(path):
    """Extension file: hopf + algebra + action and/or coaction.

    Returns a dict with the parsed pieces; the comodule-algebra route
    is marked converted=True when it was obtained from a module-algebra
    action through the duality dictionary.
    """
    doc = load_document(path)
    for key in ("field", "hopf", "algebra"):
        if key not in doc:
            raise FormatError(f"extension file needs '{key}'")
    domain = parse_field(doc["field"])
    h = load_hopf(domain, doc["hopf"])
    alg = load_algebra(domain, doc["algebra"])
    out = {"domain": domain, "hopf": h, "algebra": alg,
           "module_algebra": None, "comodule_algebra": None, "converted": False}
    if "action" in doc:
        entries = _parse_entries(domain, doc["action"], 3, "action")
        out["module_algebra"] = actions.module_algebra(h, alg, entries)
    if "coaction" in doc:
        entries = _parse_entries(domain, doc["coaction"], 3, "coaction")
        comod = cocyclic.comodule_from_triples(h, alg.dim, entries)
        out["comodule_algebra"] = cocyclic.ComoduleAlgebraData(alg, comod)
    elif out["module_algebra"] is not None:
        out["comodule_algebra"] = cocyclic.module_algebra_to_comodule_algebra(
            out["module_algebra"]
        )
        out["converted"] = True
    if out["module_algebra"] is None and out["comodule_algebra"] is None:
        raise FormatError("extension file needs 'action' or 'coaction'")
    return out


def load_module_file(path):
    """Module file for the homology command: hopf + module action."""
    doc = load_document(path)
    for key in ("field", "hopf", "module"):
        if key not in doc:
            raise FormatError(f"module file needs '{key}'")
    domain = parse_field(doc["field"])
    h = load_hopf(domain, doc["hopf"])
    mod = _require_object(doc["module"], "module spec")
    if "dim" not in mod or "action" not in mod:
        raise FormatError("module spec needs 'dim' and 'action'")
    dim = _int_field(mod, "dim", "module spec")
    entries = _parse_entries(domain, mod["action"], 3, "module action")
    action = hopf.dense_tensor_from_triples(domain, (h.dim, dim, dim), entries)
    return h, dim, action


def load_ayd_module(hopf_algebra, path):
    """AYD coefficient file: dim + action + coaction over a given H."""
    doc = load_document(path)
    mod = _require_object(doc.get("module", doc), "AYD module spec")
    for key in ("dim", "action", "coaction"):
        if key not in mod:
            raise FormatError(f"AYD module file needs '{key}'")
    domain = hopf_algebra.domain
    dim = _int_field(mod, "dim", "AYD module spec")
    act_entries = _parse_entries(domain, mod["action"], 3, "module action")
    action = hopf.dense_tensor_from_triples(domain, (hopf_algebra.dim, dim, dim), act_entries)
    co_entries = _parse_entries(domain, mod["coaction"], 3, "module coaction")
    comod = cocyclic.comodule_from_triples(hopf_algebra, dim, co_entries)
    return cocyclic.AydModuleData(comod, action)


def load_smash_module(smash_data, spec):
    """Smash-module spec: 'regular', 'algebra', {'sum': [...]} or explicit."""
    if isinstance(spec, str):
        if spec == "regular":
            return actions.regular_smash_module(smash_data)
        if spec == "algebra":
            return actions.algebra_smash_module(smash_data)
        raise FormatError(f"unknown smash module name {spec!r}")
    if isinstance(spec, dict) and "sum" in spec:
        parts = [load_smash_module(smash_data, part) for part in spec["sum"]]
        if not parts:
            raise FormatError("empty smash module sum")
        total = parts[0]
        for part in parts[1:]:
            total = actions.direct_sum_smash_modules(total, part)
        return total
    if isinstance(spec, dict) and "dim" in spec and "action" in spec:
        domain = smash_data.algebra.domain
        dim = _int_field(spec, "dim", "smash module spec")
        entries = _parse_entries(domain, spec["action"], 3, "smash module action")
        action = hopf.dense_tensor_from_triples(domain, (smash_data.dim, dim, dim), entries)
        return actions.smash_module(smash_data, dim, action)
    raise FormatError(f"cannot interpret smash module spec {spec!r}")


def load_smash_module_file(smash_data, path):
    doc = load_document(path)
    if "smash_module" not in doc:
        raise FormatError("smash module file needs 'smash_module'")
    return load_smash_module(smash_data, doc["smash_module"])


def load_lattice_file(path):
    """Lattice file: rational Hopf algebra, ambient basis, action matrices."""
    doc = load_document(path)
    for key in ("hopf", "ambient_dim", "basis", "action"):
        if key not in doc:
            raise FormatError(f"lattice file needs '{key}'")
    h = load_hopf(QQ, doc["hopf"])
    n = _int_field(doc, "ambient_dim", "lattice file")
    basis_cols = doc["basis"]
    if not isinstance(basis_cols, list) or not basis_cols:
        raise FormatError("lattice basis must be a nonempty list of columns")
    cols = [_parse_vector(QQ, c, n, "lattice basis column") for c in basis_cols]
    lattice = lattices.IntegerLattice.from_generators(n, cols)
    if lattice.rank != len(cols):
        raise FormatError("lattice basis columns are linearly dependent")
    mats = doc["action"]
    if not isinstance(mats, list) or len(mats) != h.dim:
        raise FormatError("lattice action needs one matrix per Hopf basis element")
    action = []
    for m in mats:
        if not isinstance(m, list) or len(m) != n:
            raise FormatError("action matrix must have ambient_dim rows")
        action.append(Matrix(QQ, [_parse_vector(QQ, row, n, "action row") for row in m]))
    unit = _parse_vector(QQ, doc.get("unit", ["1"] + ["0"] * (n - 1)), n, "unit")
    algebra = None
    if "algebra" in doc:
        algebra = load_algebra(QQ, doc["algebra"])
    module = lattices.LatticeModuleData(
        hopf=h, lattice=lattice, action=tuple(action), unit=unit, algebra=algebra
    )
    candidates = []
    for cand in doc.get("candidates", []):
        candidates.append(_parse_vector(QQ, cand, n, "candidate"))
    return module, candidates


def is_lattice_document(path):
    try:
        doc = load_document(path)
    except HopfgalError:
        return False
    return "ambient_dim" in doc and "basis" in doc
