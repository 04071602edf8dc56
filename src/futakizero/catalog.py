"""Declarative case records: loader, validator, canonical printer.

Line-oriented UTF-8: ``[case "ID"]`` headers, ``key = value`` pairs with
repeated keys for lists (``center``, ``torus``, ``finite``, ...), polynomial
values in the shared surface syntax, maps as ``map(expr, ...)`` listing the
image of every coordinate in ambient order with an explicit
``factors = (permutation)`` clause.  ``param a excludes -1, 1`` declares a
parameter.  The shipped catalog is stored canonically, so print(load(path))
round-trips byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .polyring import AmbientSpace, ParamField, PolyError, parse_equations, parse_poly
from .ratlinalg import LinAlgError, QMatrix
from .symmetry import (MonomialAutomorphism, ParamCurve,
                       SubvarietyPresentation, SymmetryError, TorusGenerator,
                       check_variety_invariant, torus_eigencheck)

FAMILY_LIST = (
    "2.20", "2.21", "2.22", "2.24", "2.27", "2.29", "2.32", "2.34",
    "3.5", "3.8", "3.9", "3.10", "3.12", "3.13", "3.15", "3.17",
    "3.19", "3.20", "3.25", "3.27", "4.2", "4.3", "4.4", "4.6",
    "4.7", "4.13", "5.1", "5.3", "6.1", "7.1", "8.1", "9.1", "10.1",
)

EXCEPTION_FAMILIES = ("3.9", "3.13", "3.19", "3.20", "4.2", "4.4", "4.7", "5.3")

KINDS = ("polynomial", "abstract", "product", "semisimple_full", "toric-crosscheck")


class CatalogError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Center:
    __slots__ = ("stage", "presentation")

    def __init__(self, stage, presentation):
        self.stage = stage
        self.presentation = presentation    # SubvarietyPresentation


class ProductFactorSpec:
    __slots__ = ("name", "verdict_tag", "rank", "family_dims", "toric_family",
                 "anticanonical_in_families")

    def __init__(self, name, verdict_tag, rank, family_dims=(), toric_family="",
                 anticanonical_in_families=True):
        self.name = name
        self.verdict_tag = verdict_tag      # full_cone | families
        self.rank = rank
        self.family_dims = family_dims
        self.toric_family = toric_family
        self.anticanonical_in_families = anticanonical_in_families


class CaseRecord:
    __slots__ = ("id", "kind", "theorem", "expected", "aut", "notes", "provenance",
                 "ambient", "params", "variety", "centers", "torus", "finite", "semisimple",
                 "h11_labels", "anticanonical", "torus_rank", "adjoints", "fixed_dim",
                 "anticanonical_in_fixed", "product_factors", "loci", "toric_family",
                 "anticanonical_params", "expected_adjoint", "expected_toric",
                 "_invariances")

    def __init__(self, id, kind, theorem, expected, aut="", notes=(), provenance=(),
                 ambient=None, params=None, variety=(), centers=(), torus=(), finite=(),
                 semisimple="", h11_labels=(), anticanonical=None, torus_rank=None,
                 adjoints=(), fixed_dim=None, anticanonical_in_fixed=None,
                 product_factors=(), loci=(), toric_family="", anticanonical_params=None,
                 expected_adjoint="", expected_toric=""):
        self.id = id
        self.kind = kind
        self.theorem = theorem
        self.expected = expected        # ("full_cone",) | ("subcone", d) | ("see_toric",)
        self.aut = aut
        self.notes = notes
        self.provenance = provenance
        self.ambient = ambient          # AmbientSpace
        self.params = params            # ParamField
        self.variety = variety
        self.centers = centers
        self.torus = torus
        self.finite = finite            # (name, order, MonomialAutomorphism)
        self.semisimple = semisimple
        self.h11_labels = h11_labels
        self.anticanonical = anticanonical
        self.torus_rank = torus_rank    # abstract records
        self.adjoints = adjoints        # (name, QMatrix)
        self.fixed_dim = fixed_dim
        self.anticanonical_in_fixed = anticanonical_in_fixed
        self.product_factors = product_factors
        self.loci = loci
        self.toric_family = toric_family
        self.anticanonical_params = anticanonical_params or {}
        self.expected_adjoint = expected_adjoint
        self.expected_toric = expected_toric
        self._invariances = None

    @property
    def family(self):
        return self.id.split("-")[0]

    def invariances(self):
        """The InvarianceResult of each finite symmetry on the variety, in
        ``finite`` order (None for each without a variety), computed on the
        first call: validation and analysis read the same span solves."""
        if self._invariances is None:
            self._invariances = tuple(
                check_variety_invariant(self.variety, tau) if self.variety else None
                for _, _, tau in self.finite)
        return self._invariances

    def finite_by_name(self, name):
        for entry in self.finite:
            if entry[0] == name:
                return entry
        raise KeyError(name)


class Catalog:
    __slots__ = ("version", "records", "segments")

    def __init__(self, version, records, segments):
        self.version = version
        self.records = records
        self.segments = segments        # render stream

    def by_id(self, case_id):
        for r in self.records:
            if r.id == case_id:
                return r
        raise KeyError(case_id)

    def families(self):
        return tuple(dict.fromkeys(r.family for r in self.records))

    def toric_loci(self, toric_family):
        """The candidate zero-locus equations of the first record that scans
        this toric family, itself or as a product factor; () if none."""
        for record in self.records:
            if record.loci and (record.toric_family == toric_family or any(
                    f.toric_family == toric_family for f in record.product_factors)):
                return record.loci
        return ()

    def render(self):
        out = []
        for seg in self.segments:
            tag = seg[0]
            if tag == "comment":
                out.append(seg[1])
            elif tag == "blank":
                out.append("")
            elif tag == "version":
                out.append(f"version = {seg[1]}")
            elif tag == "header":
                out.append(f'[case "{seg[1]}"]')
            else:
                out.append(f"{seg[1]} = {seg[2]}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def default_catalog_text():
    return resources.files("futakizero.data").joinpath("catalog.cat").read_text("utf-8")


def load_catalog(path=None, text=None):
    """Parse and fully resolve a catalog; grammar errors carry line numbers."""
    if text is None:
        if path is None:
            text = default_catalog_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    segments = []
    version = None
    raw_records = []   # (id, line, [(key, value, line)])
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped:
            segments.append(("blank",))
            continue
        if stripped.startswith("#"):
            segments.append(("comment", line))
            continue
        if stripped.startswith("[case"):
            if not (stripped.startswith('[case "') and stripped.endswith('"]')):
                raise CatalogError('malformed header, expected [case "ID"]', lineno)
            case_id = stripped[len('[case "'):-2]
            if any(r[0] == case_id for r in raw_records):
                raise CatalogError(f"duplicate id {case_id!r}", lineno)
            current = (case_id, lineno, [])
            raw_records.append(current)
            segments.append(("header", case_id))
            continue
        if "=" not in stripped:
            raise CatalogError(f"expected key = value, got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            if key == "version":
                try:
                    version = int(value)
                except ValueError:
                    raise CatalogError(f"bad version value {value!r}", lineno) from None
                segments.append(("version", version))
                continue
            raise CatalogError(f"key {key!r} outside any record", lineno)
        current[2].append((key, value, lineno))
        segments.append(("kv", key, value))
    if version is None:
        raise CatalogError("missing version line (empty catalog?)")
    if not raw_records:
        raise CatalogError("catalog has no records")
    records = tuple(_build_record(case_id, header_line, entries)
                    for case_id, header_line, entries in raw_records)
    return Catalog(version, records, tuple(segments))


_REQUIRED = object()     # the default of a key that must be given


def _build_record(case_id, header_line, entries):
    def all_of(key):
        return [(v, ln) for k, v, ln in entries if k == key]

    def one_of(key, default=_REQUIRED):
        hits = all_of(key)
        if not hits:
            if default is _REQUIRED:
                raise CatalogError(f"record {case_id}: missing key {key!r}", header_line)
            return default, header_line
        if len(hits) > 1:
            raise CatalogError(f"record {case_id}: repeated key {key!r}", hits[1][1])
        return hits[0]

    known = {"kind", "theorem", "expected", "aut", "note", "provenance", "ambient",
             "param", "variety", "center", "torus", "finite", "semisimple", "h11",
             "anticanonical", "torus_rank", "adjoint", "fixed_dim",
             "anticanonical_in_fixed", "factor", "locus", "toric_family",
             "anticanonical_params", "expected_adjoint", "expected_toric"}
    for k, _, ln in entries:
        if k not in known:
            raise CatalogError(f"record {case_id}: unknown key {k!r}", ln)

    def optional(key, parse, default=None):
        """``parse(value, line)`` of a key given at most once, else ``default``."""
        value, line = one_of(key, default=None)
        return default if value is None else parse(value, line)

    def number(key, convert):
        return lambda value, line: _convert(convert, value, f"{key} value", line, case_id)

    kind, ln = one_of("kind")
    if kind not in KINDS:
        raise CatalogError(f"record {case_id}: unknown kind {kind!r}", ln)
    theorem = number("theorem", int)(*one_of("theorem"))
    expected = _parse_expected(*one_of("expected"), case_id)
    aut = one_of("aut", default="")[0]
    notes = tuple(v for v, _ in all_of("note"))
    provenance = tuple(v for v, _ in all_of("provenance"))
    semisimple = one_of("semisimple", default="")[0]

    params = _parse_params(all_of("param"), case_id)
    ambient = optional("ambient", lambda v, ln: _parse_ambient(v, ln, case_id, params))

    variety = tuple(_parse_poly(v, ln, case_id, ambient, params)
                    for v, ln in all_of("variety"))
    centers = tuple(_parse_center(v, ln, case_id, ambient, params)
                    for v, ln in all_of("center"))
    torus = tuple(_parse_torus(v, ln, case_id, ambient)
                  for v, ln in all_of("torus"))
    finite = tuple(_parse_finite(v, ln, case_id, ambient, params)
                   for v, ln in all_of("finite"))
    for i, ((name, _, _), (_, ln)) in enumerate(zip(finite, all_of("finite"))):
        if any(name == other for other, _, _ in finite[:i]):
            raise CatalogError(f"record {case_id}: repeated finite symmetry {name!r}", ln)
    if ambient is None and kind in ("polynomial", "toric-crosscheck"):
        raise CatalogError(f"record {case_id}: missing key 'ambient'", header_line)

    h11 = optional("h11", lambda v, ln: tuple(x.strip() for x in v.split(",")), ())
    anticanonical = optional("anticanonical", number(
        "anticanonical", lambda v: tuple(Fraction(x.strip()) for x in v.split(","))))

    torus_rank = optional("torus_rank", number("torus_rank", int))
    adjoints = tuple(_parse_adjoint(v, ln, case_id) for v, ln in all_of("adjoint"))
    fixed_dim = optional("fixed_dim", number("fixed_dim", int))
    aif = optional("anticanonical_in_fixed", _parse_bool)

    factors = tuple(_parse_factor(v, ln, case_id) for v, ln in all_of("factor"))
    loci = tuple(v for v, _ in all_of("locus"))
    toric_family = one_of("toric_family", default="")[0]
    anticanonical_params = optional(
        "anticanonical_params", lambda v, ln: _parse_param_values(v, ln, case_id), {})
    expected_adjoint = one_of("expected_adjoint", default="")[0]
    expected_toric = one_of("expected_toric", default="")[0]

    return CaseRecord(
        id=case_id, kind=kind, theorem=theorem, expected=expected, aut=aut,
        notes=notes, provenance=provenance, ambient=ambient, params=params,
        variety=variety, centers=centers, torus=torus, finite=finite,
        semisimple=semisimple, h11_labels=h11, anticanonical=anticanonical,
        torus_rank=torus_rank, adjoints=adjoints, fixed_dim=fixed_dim,
        anticanonical_in_fixed=aif, product_factors=factors, loci=loci,
        toric_family=toric_family, anticanonical_params=anticanonical_params,
        expected_adjoint=expected_adjoint, expected_toric=expected_toric)


def _convert(convert, text, what, line, case_id):
    """``convert(text)``; a bad number is a CatalogError naming its line."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"record {case_id}: bad {what} {text!r}", line) from None


def _parse_expected(value, line, case_id):
    if value == "full_cone":
        return ("full_cone",)
    if value == "see_toric":
        return ("see_toric",)
    if value.startswith("subcone(") and value.endswith(")"):
        try:
            return ("subcone", int(value[len("subcone("):-1]))
        except ValueError:
            pass
    raise CatalogError(f"record {case_id}: bad expected verdict {value!r}", line)


def _parse_params(hits, case_id):
    names = []
    excluded = {}
    for value, line in hits:
        head, _, tail = value.partition(" excludes ")
        name = head.strip()
        if not name.isidentifier():
            raise CatalogError(f"record {case_id}: bad parameter name {name!r}", line)
        if name in names:
            raise CatalogError(f"record {case_id}: repeated parameter {name!r}", line)
        names.append(name)
        if tail:
            try:
                excluded[name] = tuple(Fraction(x.strip()) for x in tail.split(","))
            except (ValueError, ZeroDivisionError):
                raise CatalogError(f"record {case_id}: bad excluded value in {value!r}",
                                   line) from None
    return ParamField(tuple(names), excluded)


def _parse_ambient(value, line, case_id, params):
    factors = []
    for chunk in value.split("|"):
        names = tuple(chunk.split())
        if len(names) < 2:
            raise CatalogError(f"record {case_id}: ambient factor needs >= 2 coordinates",
                               line)
        factors.append(names)
    try:
        ambient = AmbientSpace.product(*factors)
    except PolyError as exc:
        raise CatalogError(f"record {case_id}: {exc}", line) from exc
    clash = set(ambient.coords) & set(params.names)
    if clash:
        raise CatalogError(f"record {case_id}: names {sorted(clash)} are both "
                           f"coordinates and parameters", line)
    return ambient


def _parse_poly(value, line, case_id, ambient, params):
    """A ``variety`` equation or ``ideal`` generator: a zero polynomial would
    cut out nothing, and every span question on it is trivially solved."""
    if ambient is None:
        raise CatalogError(f"record {case_id}: polynomial data without an ambient", line)
    try:
        poly = parse_poly(value, ambient, params)
    except PolyError as exc:
        raise CatalogError(f"record {case_id}: {exc}", line) from exc
    if poly.is_zero():
        raise CatalogError(f"record {case_id}: {value.strip()!r} is the zero polynomial", line)
    return poly


def _split_args(body):
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i].strip())
            start = i + 1
    tail = body[start:].strip()
    if tail:
        parts.append(tail)
    return parts


def _take_call(text, name):
    """Extract the argument body of ``name(...)`` from the front of text;
    returns (body, rest)."""
    text = text.strip()
    if not text.startswith(name + "("):
        return None, text
    depth = 0
    for i in range(len(name), len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[len(name) + 1:i], text[i + 1:].strip()
    raise CatalogError(f"unbalanced parentheses in {text!r}")


def _parse_center(value, line, case_id, ambient, params):
    if ambient is None:
        raise CatalogError(f"record {case_id}: center without an ambient", line)
    stage = 1
    rest = value.strip()
    if rest.startswith("stage "):
        head, _, rest = rest.partition(":")
        stage = _convert(int, head.strip()[len("stage "):], "center stage", line, case_id)
        rest = rest.strip()
    curve = None
    ideal = ()
    if rest.startswith("curve("):
        body, rest = _take_call(rest, "curve")
        texts = _split_args(body)
        try:
            curve = ParamCurve.from_texts(texts, ambient, params)
        except (PolyError, SymmetryError) as exc:
            raise CatalogError(f"record {case_id}: {exc}", line) from exc
        if rest.startswith("with "):
            rest = rest[len("with "):]
    if rest.startswith("ideal("):
        body, rest = _take_call(rest, "ideal")
        ideal = tuple(_parse_poly(t, line, case_id, ambient, params)
                      for t in _split_args(body))
    if rest:
        raise CatalogError(f"record {case_id}: trailing center data {rest!r}", line)
    if curve is None and not ideal:
        raise CatalogError(f"record {case_id}: empty center", line)
    return Center(stage, SubvarietyPresentation(ideal=ideal, curve=curve))


def _parse_torus(value, line, case_id, ambient):
    body, rest = _take_call(value, "weights")
    if body is None or rest:
        raise CatalogError(f"record {case_id}: torus must be weights(...)", line)
    weights = tuple(_convert(int, x, "torus weight", line, case_id) for x in _split_args(body))
    if ambient is None:
        raise CatalogError(f"record {case_id}: torus without an ambient", line)
    if len(weights) != len(ambient.coords):
        raise CatalogError(
            f"record {case_id}: torus weight length {len(weights)} != "
            f"{len(ambient.coords)} coordinates", line)
    return TorusGenerator(ambient, weights)


def _parse_finite(value, line, case_id, ambient, params):
    if ambient is None:
        raise CatalogError(f"record {case_id}: finite symmetry without an ambient", line)
    parts = [p.strip() for p in value.split(" : ")]
    if len(parts) != 4:
        raise CatalogError(
            f"record {case_id}: finite symmetry needs name : order : factors : map",
            line)
    name = parts[0]
    if not parts[1].startswith("order "):
        raise CatalogError(f"record {case_id}: expected order clause", line)
    order = _convert(int, parts[1][len("order "):], "finite order", line, case_id)
    if not (parts[2].startswith("factors = (") and parts[2].endswith(")")):
        raise CatalogError(f"record {case_id}: expected factors = (...) clause", line)
    declared = tuple(_convert(int, x, "factors entry", line, case_id)
                     for x in parts[2][len("factors = ("):-1].split())
    body, rest = _take_call(parts[3], "map")
    if body is None or rest:
        raise CatalogError(f"record {case_id}: expected map(...) clause", line)
    images = _split_args(body)
    try:
        tau = MonomialAutomorphism.from_images(images, ambient, params)
    except (PolyError, SymmetryError) as exc:
        raise CatalogError(f"record {case_id}: {exc}", line) from exc
    computed = tuple(f + 1 for f in tau.factor_map)
    if computed != declared:
        raise CatalogError(
            f"record {case_id}: declared factors {declared} != computed {computed}",
            line)
    return (name, order, tau)


def _parse_adjoint(value, line, case_id):
    name, _, rest = value.partition(" : ")
    body, tail = _take_call(rest.strip(), "matrix")
    if body is None or tail:
        raise CatalogError(f"record {case_id}: adjoint must be name : matrix(...)", line)
    rows = [r.strip() for r in body.split(";")]
    entries = [[_convert(Fraction, x, "matrix entry", line, case_id) for x in row.split()]
               for row in rows]
    try:
        return (name.strip(), QMatrix.from_rows(entries))
    except LinAlgError as exc:
        raise CatalogError(f"record {case_id}: adjoint {name.strip()}: {exc}", line) from exc


def _parse_factor(value, line, case_id):
    parts = [p.strip() for p in value.split(" : ")]
    if len(parts) < 3:
        raise CatalogError(f"record {case_id}: factor needs name : verdict : rank", line)
    name = parts[0]
    rank = None
    toric = ""
    dims = ()
    anticanonical_in_families = True
    tag = None
    for part in parts[1:]:
        if part == "full_cone":
            tag = "full_cone"
        elif part.startswith("families "):
            tag = "families"
            dims = tuple(_convert(int, x.strip(), "families entry", line, case_id)
                         for x in part[len("families "):].split(","))
        elif part.startswith("rank "):
            rank = _convert(int, part[len("rank "):], "factor rank", line, case_id)
        elif part.startswith("toric "):
            toric = part[len("toric "):]
        elif part.startswith("anticanonical_in_families "):
            anticanonical_in_families = _parse_bool(
                part[len("anticanonical_in_families "):], line)
        else:
            raise CatalogError(f"record {case_id}: bad factor clause {part!r}", line)
    if tag is None or rank is None:
        raise CatalogError(f"record {case_id}: factor needs a verdict and a rank", line)
    return ProductFactorSpec(name, tag, rank, dims, toric, anticanonical_in_families)


def _parse_param_values(value, line, case_id):
    out = {}
    for chunk in value.split(","):
        key, _, v = chunk.partition("=")
        if not v:
            raise CatalogError(f"bad parameter assignment {chunk!r}", line)
        key = key.strip()
        if key in out:
            raise CatalogError(f"record {case_id}: repeated parameter {key!r}", line)
        out[key] = _convert(Fraction, v.strip(), "parameter value", line, case_id)
    return out


def _parse_bool(value, line):
    if value == "yes":
        return True
    if value == "no":
        return False
    raise CatalogError(f"expected yes/no, got {value!r}", line)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_case(record):
    """Consistency findings for one record; empty list = valid."""
    findings = []
    if record.kind in ("polynomial", "toric-crosscheck"):
        findings.extend(_validate_polynomialish(record))
    elif record.kind == "abstract":
        findings.extend(_validate_abstract(record))
    elif record.kind == "product":
        findings.extend(_validate_product(record))
    findings.extend(_validate_loci(record))
    if record.kind in ("polynomial", "toric-crosscheck"):
        expected_labels = record.ambient.nfactors + len(record.centers)
        if len(record.h11_labels) != expected_labels:
            findings.append(
                f"h11 label count {len(record.h11_labels)} != factors+centers "
                f"{expected_labels}")
        if record.anticanonical is not None and \
                len(record.anticanonical) != len(record.h11_labels):
            findings.append("anticanonical vector length mismatch")
    return findings


def _validate_polynomialish(record):
    findings = []
    for v_index, v in enumerate(record.torus):
        for g_index, g in enumerate(record.variety):
            res = torus_eigencheck([g], v)
            if not res.ok:
                findings.append(f"torus {v_index} vs variety generator {g_index}: "
                                f"{res.detail}")
        for c_index, center in enumerate(record.centers):
            pres = center.presentation
            if pres.ideal:
                res = torus_eigencheck(list(pres.ideal), v)
                if not res.ok:
                    findings.append(f"torus {v_index} vs center {c_index} ideal: "
                                    f"{res.detail}")
            if pres.curve is not None:
                res = torus_eigencheck(pres.curve, v)
                if not res.ok:
                    findings.append(f"torus {v_index} vs center {c_index} curve: "
                                    f"{res.detail}")
    for c_index, center in enumerate(record.centers):
        pres = center.presentation
        if pres.curve is not None:
            for g_index, g in enumerate(pres.ideal):
                if not pres.curve.substituted(g).is_zero():
                    findings.append(f"center {c_index}: curve does not satisfy its own "
                                    f"ideal generator {g_index}")
            for g_index, g in enumerate(record.variety):
                if not pres.curve.substituted(g).is_zero():
                    findings.append(f"center {c_index}: curve leaves the variety "
                                    f"(generator {g_index})")
    for (name, order, tau), inv in zip(record.finite, record.invariances()):
        if not tau.order_divides(order):
            findings.append(f"symmetry {name} does not have declared order {order}")
        if inv is not None and inv.invariant:
            uncovered = [r for r in inv.denominator_roots
                         if not _root_excluded(record.params, r)]
            if uncovered:
                findings.append(f"symmetry {name}: span-solve denominators vanish "
                                f"at non-excluded values {uncovered}")
    return findings


def _root_excluded(params, root):
    return any(not params.admits(n, root) for n in params.names)


def _validate_abstract(record):
    findings = []
    if record.torus_rank is None or record.fixed_dim is None:
        findings.append("abstract record needs torus_rank and fixed_dim")
        return findings
    for name, m in record.adjoints:
        if m.rows != record.torus_rank or m.cols != record.torus_rank:
            findings.append(f"adjoint {name} is not {record.torus_rank}x"
                            f"{record.torus_rank}")
    if record.h11_labels and record.fixed_dim > len(record.h11_labels):
        findings.append("fixed_dim exceeds the class-lattice rank")
    if not record.provenance:
        findings.append("abstract record without provenance notes")
    return findings


def _validate_product(record):
    findings = []
    if not record.product_factors:
        findings.append("product record without factors")
    for f in record.product_factors:
        if f.verdict_tag == "families" and not f.family_dims:
            findings.append(f"factor {f.name}: families verdict without dimensions")
    return findings


def _validate_loci(record):
    """Every locus must parse over the parameters of each family it is
    scanned on: the record's toric family and its factors'."""
    findings = []
    scanned = [record.toric_family] + [f.toric_family for f in record.product_factors]
    for name in filter(None, scanned):
        from .toric import FAMILIES     # the toric engine, loaded only for toric records
        family = FAMILIES.get(name)
        if family is None:
            findings.append(f"unknown toric family {name!r}")
            continue
        for eq in record.loci:
            try:
                parse_equations(eq, family.param_names)
            except PolyError as exc:
                findings.append(f"bad locus equation {eq!r} on {name}: {exc}")
    return findings


def validate_catalog(catalog):
    """Catalog-level findings: §-list coverage and the theorem partition."""
    findings = []
    for record in catalog.records:
        for finding in validate_case(record):
            findings.append(f"{record.id}: {finding}")
    families = set(catalog.families())
    expected = set(FAMILY_LIST)
    missing = sorted(expected - families)
    extra = sorted(families - expected)
    if missing:
        findings.append(f"families missing from the inventory: {missing}")
    if extra:
        findings.append(f"families outside the inventory: {extra}")
    for record in catalog.records:
        should_be_exception = record.family in EXCEPTION_FAMILIES
        if should_be_exception != (record.theorem == 2):
            findings.append(f"{record.id}: theorem tag does not match the partition")
        if record.theorem == 1 and record.expected[0] == "subcone":
            findings.append(f"{record.id}: theorem 1 record expects a subcone")
        if record.theorem == 2 and record.expected[0] == "full_cone":
            findings.append(f"{record.id}: theorem 2 record expects the full cone")
    return findings
