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

Each loader imports the layer it builds into (`actions`, `cocyclic`,
`lattices`) when it runs, so reading a Hopf algebra loads none of them.
"""

from __future__ import annotations

import json

from . import hopf
from .errors import FormatError, ResourceBoundError
from .linalg import GF, QQ, ZZ, ColumnMap, require_field


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


def _dim_field(obj, key, what, max_dim):
    """obj[key] as a dimension: a JSON integer from 1 to max_dim, checked
    before anything of that size is built."""
    value = _int_field(obj, key, what)
    if value < 1:
        raise FormatError(f"{what} '{key}' must be at least 1, not {value}")
    if value > max_dim:
        raise ResourceBoundError(f"{what} '{key}' {value} > bound {max_dim}")
    return value


def _bound_builtin(what, dim, max_dim):
    """Refuse a builtin Hopf algebra whose dimension passes max_dim, before
    any of it is built."""
    if dim > max_dim:
        raise ResourceBoundError(f"{what} has dimension {dim} > bound {max_dim}")


def _list_field(obj, key, what):
    """obj[key] as a JSON list; an empty list when absent."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise FormatError(f"{what} '{key}' must be a list, not {value!r}")
    return value


def _labels_field(obj, key, what):
    """obj[key] as a tuple of distinct string labels; None when absent or empty."""
    value = obj.get(key)
    if not value:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FormatError(f"{what} '{key}' must be a list of strings, not {value!r}")
    if len(set(value)) < len(value):
        repeated = next(v for i, v in enumerate(value) if v in value[:i])
        raise FormatError(f"{what} '{key}' repeats the label {repeated!r}")
    return tuple(value)


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
    if isinstance(value, bool):  # a subclass of int, so test it first
        raise FormatError(f"boolean scalar {value!r} rejected; use strings")
    if isinstance(value, str):
        try:
            return domain.parse(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(
                f"scalar {value!r} is not an element of {domain.name}: {exc}"
            ) from exc
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
        if any(type(i) is not int for i in idx):
            raise FormatError(f"{what} entry {entry!r} has non-integer indices")
        out.append(tuple(idx) + (_parse_scalar(domain, entry[-1]),))
    return out


def load_algebra(domain, obj, max_dim, what="algebra"):
    _require_object(obj, what)
    for key in ("dim", "mult", "unit"):
        if key not in obj:
            raise FormatError(f"{what} needs '{key}'")
    dim = _dim_field(obj, "dim", what, max_dim)
    labels = _labels_field(obj, "basis", what) or tuple(f"e{i}" for i in range(dim))
    if len(labels) != dim:
        raise FormatError(f"{what} basis labels must match dim")
    mult = _parse_entries(domain, obj["mult"], 3, f"{what} mult")
    unit = _parse_vector(domain, obj["unit"], dim, f"{what} unit")
    return hopf.algebra_from_triples(domain, dim, labels, mult, unit)


def load_hopf(domain, obj, max_dim, validate=True):
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
            _bound_builtin(f"group_algebra 'table' of order {len(table)}", len(table), max_dim)
            return hopf.group_algebra(domain, table, _labels_field(obj, "labels", "group_algebra"))
        if name == "sweedler":
            _bound_builtin("sweedler", 4, max_dim)
            return hopf.sweedler(domain)
        if name == "taft":
            if "n" not in obj or "q" not in obj:
                raise FormatError("taft needs 'n' and 'q'")
            n = _int_field(obj, "n", "taft")
            # n < 2 is refused by hopf.taft as malformed
            _bound_builtin(f"taft 'n' {n}", n * n if n >= 2 else 0, max_dim)
            return hopf.taft(domain, n, _parse_scalar(domain, obj["q"]))
        if name == "dual":
            if "of" not in obj:
                raise FormatError("dual needs 'of'")
            return hopf.dual(load_hopf(domain, obj["of"], max_dim))
        raise FormatError(f"unknown builtin {name!r}")
    for key in ("comult", "counit", "antipode"):
        if key not in obj:
            raise FormatError(f"explicit hopf data needs '{key}'")
    alg = load_algebra(domain, obj, max_dim, "hopf algebra")
    n = alg.dim
    comult = hopf.sparse_tensor(
        domain, (n, n, n), _parse_entries(domain, obj["comult"], 3, "comult"), 1
    )
    counit = _parse_vector(domain, obj["counit"], n, "counit")
    antipode = hopf.matrix_from_triples(
        domain, n, _parse_entries(domain, obj["antipode"], 2, "antipode")
    )
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
    except RecursionError as exc:
        raise FormatError(f"{path} is nested too deeply to read") from exc
    return _require_object(doc, path)


def load_hopf_file(path, max_dim, validate=True):
    doc = load_document(path)
    if "field" not in doc:
        raise FormatError("file needs a 'field'")
    domain = parse_field(doc["field"])
    spec = doc.get("builtin", doc)
    return domain, load_hopf(domain, spec, max_dim, validate=validate)


def load_extension_file(path, max_dim):
    """Extension file: hopf + algebra + action and/or coaction.

    Returns a dict with the parsed pieces.  The comodule algebra is None
    without a coaction: the cyclic command converts the module algebra
    through the duality dictionary itself.  That dictionary needs a field,
    the one way it can refuse a validated module algebra, so an action
    without a coaction over Z is refused here, for every command.
    """
    doc = load_document(path)
    for key in ("field", "hopf", "algebra"):
        if key not in doc:
            raise FormatError(f"extension file needs '{key}'")
    domain = parse_field(doc["field"])
    h = load_hopf(domain, doc["hopf"], max_dim)
    alg = load_algebra(domain, doc["algebra"], max_dim)
    out = {"domain": domain, "hopf": h, "algebra": alg,
           "module_algebra": None, "comodule_algebra": None}
    if "action" in doc:
        from . import actions

        entries = _parse_entries(domain, doc["action"], 3, "action")
        out["module_algebra"] = actions.module_algebra(h, alg, entries)
    if "coaction" in doc:
        from . import cocyclic

        entries = _parse_entries(domain, doc["coaction"], 3, "coaction")
        out["comodule_algebra"] = cocyclic.comodule_algebra(h, alg, entries)
    elif out["module_algebra"] is not None:
        require_field(domain, "module/comodule dictionary")
    if out["module_algebra"] is None and out["comodule_algebra"] is None:
        raise FormatError("extension file needs 'action' or 'coaction'")
    return out


def load_module(doc, max_dim):
    """Module document for the homology command: hopf + module action.

    A module file's action enters the program here only, so this is
    where its module law is decided, after the field that hopfological
    homology needs is checked.
    """
    for key in ("field", "hopf", "module"):
        if key not in doc:
            raise FormatError(f"module file needs '{key}'")
    domain = parse_field(doc["field"])
    h = load_hopf(domain, doc["hopf"], max_dim)
    mod = _require_object(doc["module"], "module spec")
    if "dim" not in mod or "action" not in mod:
        raise FormatError("module spec needs 'dim' and 'action'")
    dim = _dim_field(mod, "dim", "module spec", max_dim)
    entries = _parse_entries(domain, mod["action"], 3, "module action")
    action = hopf.sparse_tensor(domain, (h.dim, dim, dim), entries, 2)
    require_field(domain, "hopfological homology")
    hopf.verify_module_over_algebra(h.algebra, action)
    return h, dim, action


def load_ayd_module(hopf_algebra, path, max_dim):
    """AYD coefficient file: dim + action + coaction over a given H."""
    from . import cocyclic

    doc = load_document(path)
    mod = _require_object(doc.get("module", doc), "AYD module spec")
    for key in ("dim", "action", "coaction"):
        if key not in mod:
            raise FormatError(f"AYD module file needs '{key}'")
    domain = hopf_algebra.domain
    dim = _dim_field(mod, "dim", "AYD module spec", max_dim)
    act_entries = _parse_entries(domain, mod["action"], 3, "module action")
    action = hopf.sparse_tensor(domain, (hopf_algebra.dim, dim, dim), act_entries, 2)
    co_entries = _parse_entries(domain, mod["coaction"], 3, "module coaction")
    comod = cocyclic.comodule_from_triples(hopf_algebra, dim, co_entries)
    return cocyclic.AydModuleData(comod, action)


def load_smash_module(smash_data, spec, max_dim):
    """Smash-module spec: 'regular', 'algebra', {'sum': [...]} or explicit."""
    from . import actions

    if isinstance(spec, str):
        if spec == "regular":
            return actions.regular_smash_module(smash_data)
        if spec == "algebra":
            return actions.algebra_smash_module(smash_data)
        raise FormatError(f"unknown smash module name {spec!r}")
    if isinstance(spec, dict) and "sum" in spec:
        parts = [
            load_smash_module(smash_data, part, max_dim)
            for part in _list_field(spec, "sum", "smash module")
        ]
        if not parts:
            raise FormatError("empty smash module sum")
        total = parts[0]
        for part in parts[1:]:
            total = actions.direct_sum_smash_modules(total, part)
        return total
    if isinstance(spec, dict) and "dim" in spec and "action" in spec:
        domain = smash_data.algebra.domain
        dim = _dim_field(spec, "dim", "smash module spec", max_dim)
        entries = _parse_entries(domain, spec["action"], 3, "smash module action")
        action = hopf.sparse_tensor(domain, (smash_data.dim, dim, dim), entries, 2)
        return actions.smash_module(smash_data, dim, action)
    raise FormatError(f"cannot interpret smash module spec {spec!r}")


def load_smash_module_file(smash_data, path, max_dim):
    doc = load_document(path)
    if "smash_module" not in doc:
        raise FormatError("smash module file needs 'smash_module'")
    return load_smash_module(smash_data, doc["smash_module"], max_dim)


def load_lattice_file(path, max_dim):
    return load_lattice(load_document(path), max_dim)


def load_lattice(doc, max_dim):
    """Lattice document: rational Hopf algebra, ambient basis, action matrices."""
    from . import lattices

    for key in ("hopf", "ambient_dim", "basis", "action"):
        if key not in doc:
            raise FormatError(f"lattice file needs '{key}'")
    h = load_hopf(QQ, doc["hopf"], max_dim)
    n = _dim_field(doc, "ambient_dim", "lattice file", max_dim)
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
        rows = [_parse_vector(QQ, row, n, "action row") for row in m]
        action.append(ColumnMap.from_cols(QQ, n, zip(*rows)))
    unit = _parse_vector(QQ, doc.get("unit", ["1"] + ["0"] * (n - 1)), n, "unit")
    algebra = None
    if "algebra" in doc:
        algebra = load_algebra(QQ, doc["algebra"], max_dim)
    module = lattices.LatticeModuleData(
        hopf=h, lattice=lattice, action=tuple(action), unit=unit, algebra=algebra
    )
    candidates = []
    for cand in _list_field(doc, "candidates", "lattice file"):
        candidates.append(_parse_vector(QQ, cand, n, "candidate"))
    return module, candidates
