"""Declarative case records: loader, validator, canonical printer.

Line-oriented UTF-8: ``[case "ID"]`` headers, ``key = value`` pairs with
repeated keys for lists (``center``, ``torus``, ``finite``, ...), polynomial
values in the shared surface syntax, maps as ``map(expr, ...)`` listing the
image of every coordinate in ambient order with an explicit
``factors = (permutation)`` clause; an abstract record's ``adjoint = name :
matrix(rows) : classes (permutation)`` gives a symmetry's action on the torus
and on the ``h11`` labels in the same notation.  ``param a excludes -1, 1``
declares a parameter.  The shipped catalog is stored canonically, so print(load(path))
round-trips byte for byte.

A malformed catalog raises CatalogError, ``line N: record ID: message``
inside a record: ``_build_record`` alone adds the record and the line, the
value parsers raise bare errors.  ``validate_case`` holds every per-record
rule, the theorem partition included, so ``verify``, ``report`` and
``catalog validate`` apply the same ones.

``load_catalog(case=...)`` checks the line structure of the whole file but
builds only the records that a single-record command selects: no verdict of
one record reads another, so the keys and values of the others go unparsed.

The engines, ``products`` and ``curves`` load in the parsers and checks that
use them, so a record without an ambient, a toric family, a product kind or a
curve centre compiles none of them; a ``factor`` is a (family, tag) pair.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

FAMILY_LIST = (
    "2.20", "2.21", "2.22", "2.24", "2.27", "2.29", "2.32", "2.34",
    "3.5", "3.8", "3.9", "3.10", "3.12", "3.13", "3.15", "3.17",
    "3.19", "3.20", "3.25", "3.27", "4.2", "4.3", "4.4", "4.6",
    "4.7", "4.13", "5.1", "5.3", "6.1", "7.1", "8.1", "9.1", "10.1",
)

EXCEPTION_FAMILIES = ("3.9", "3.13", "3.19", "3.20", "4.2", "4.4", "4.7", "5.3")

KINDS = ("polynomial", "abstract", "product", "semisimple_full", "toric-crosscheck")
# a toric-crosscheck record's audit outcomes: of the adjoint solves, and of
# the scan (the values of ``cells.ScanReport.classify``)
ADJOINT_OUTCOMES = ("solvable", "partial", "unsolvable")
SCAN_OUTCOMES = ("identically_zero", "on_locus", "locus_and_more", "off_locus")


def family_of(case_id):
    """The family of a record id: ``3.10`` for ``3.10-a``."""
    return case_id.split("-")[0]


def family_number(family):
    """(N, M) of an ``N.M`` family, None for any other family id."""
    major, _, minor = family.partition(".")
    return (int(major), int(minor)) if major.isdecimal() and minor.isdecimal() else None


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


class CaseRecord:
    __slots__ = ("id", "kind", "theorem", "expected", "aut", "provenance", "ambient",
                 "params", "variety", "centers", "torus", "finite", "semisimple",
                 "h11_labels", "anticanonical", "adjoints", "product_factors", "loci",
                 "toric_family", "expected_adjoint", "expected_toric", "_invariances")

    def __init__(self, id, kind, theorem, expected, aut="", provenance=(),
                 ambient=None, params=None, variety=(), centers=(), torus=(), finite=(),
                 semisimple="", h11_labels=(), anticanonical=None, adjoints=(),
                 product_factors=(), loci=(), toric_family="", expected_adjoint="",
                 expected_toric=""):
        self.id = id
        self.kind = kind
        self.theorem = theorem
        self.expected = expected        # ("full_cone",) | ("subcone", d) | ("see_toric",)
        self.aut = aut
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
        self.adjoints = adjoints        # abstract records: (name, rows, class images)
        self.product_factors = product_factors
        self.loci = loci
        self.toric_family = toric_family
        self.expected_adjoint = expected_adjoint
        self.expected_toric = expected_toric
        self._invariances = None

    @property
    def family(self):
        return family_of(self.id)

    def invariances(self):
        """The InvarianceResult of each finite symmetry on the variety, in
        ``finite`` order (None for each without a variety), computed on the
        first call: validation and analysis read the same span solves."""
        if self._invariances is None:
            from .symmetry import check_variety_invariant
            self._invariances = tuple(
                check_variety_invariant(self.variety, tau) if self.variety else None
                for _, _, tau in self.finite)
        return self._invariances


class Catalog:
    __slots__ = ("records", "segments")

    def __init__(self, records, segments):
        self.records = records          # the built records: all, or those a case selects
        self.segments = segments        # render stream of the whole file

    def families(self):
        return tuple(dict.fromkeys(r.family for r in self.records))

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


def load_catalog(path=None, text=None, case=None):
    """Parse a catalog; grammar errors carry line numbers.  The structure of
    every line is checked (the version line, headers, duplicate ids, the
    ``key = value`` form), but records are built from their values only if
    ``case`` is None or names their id or family: ``records`` may be empty."""
    raw_records, segments = _structure(path, text)
    records = tuple(_build_record(case_id, header_line, entries)
                    for case_id, header_line, entries in raw_records
                    if case is None or case in (case_id, family_of(case_id)))
    return Catalog(records, tuple(segments))


def _structure(path, text):
    """([(id, header line, [(key, value, line)])], render segments) of the
    catalog at ``path``, or of ``text``, or of the shipped one."""
    if text is None:
        if path is None:
            text = default_catalog_text()
        else:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise CatalogError(f"cannot read {path}: {exc}") from exc
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
    return raw_records, segments


_REQUIRED = object()     # the default of a key that must be given


def _value_errors():
    """The errors a value parser raises: CatalogError, and PolyError and
    SymmetryError from the engines.  Called only once a parse has raised."""
    from .polyring import PolyError
    from .symmetry import SymmetryError
    return CatalogError, PolyError, SymmetryError


def _build_record(case_id, header_line, entries):
    """The record of one ``[case]`` block.  This is the one place that names
    the record and the entry's line in an error: the value parsers raise a
    bare CatalogError, PolyError or SymmetryError."""
    def fail(message, line):
        return CatalogError(f"record {case_id}: {message}", line)

    def parsed(parse, value, line, *context):
        try:
            return parse(value, *context)
        except _value_errors() as exc:
            raise fail(exc, line) from exc

    def all_of(key):
        return [(v, ln) for k, v, ln in entries if k == key]

    def each(key, parse, *context):
        return tuple(parsed(parse, v, ln, *context) for v, ln in all_of(key))

    def one(key, parse=None, *context, default=_REQUIRED):
        """The value of a key given at most once, through ``parse``;
        ``default`` when the key is absent."""
        hits = all_of(key)
        if len(hits) > 1:
            raise fail(f"repeated key {key!r}", hits[1][1])
        if not hits:
            if default is _REQUIRED:
                raise fail(f"missing key {key!r}", header_line)
            return default
        value, line = hits[0]
        return value if parse is None else parsed(parse, value, line, *context)

    def distinct(key, named, what):
        """Reject the first ``key`` entry whose name an earlier one took."""
        for i, ((name, *_), (_, line)) in enumerate(zip(named, all_of(key))):
            if any(name == other for other, *_ in named[:i]):
                raise fail(f"repeated {what} {name!r}", line)

    for k, _, ln in entries:
        if k not in _KEYS:
            raise fail(f"unknown key {k!r}", ln)

    kind = one("kind", _parse_kind)
    theorem = one("theorem", _convert, int, "theorem value")
    expected = one("expected", _parse_expected)
    aut = one("aut", default="")
    provenance = tuple(v for v, _ in all_of("provenance"))
    semisimple = one("semisimple", default="")

    declared = each("param", _parse_param)
    distinct("param", declared, "parameter")
    params = None       # only polynomial data reads the parameters
    if declared or all_of("ambient"):
        from .polyring import ParamField
        params = ParamField(tuple(name for name, _ in declared),
                            {name: values for name, values in declared if values})
    ambient = one("ambient", _parse_ambient, params, default=None)

    variety = each("variety", _parse_poly, ambient, params)
    centers = each("center", _parse_center, ambient, params)
    torus = each("torus", _parse_torus, ambient)
    finite = each("finite", _parse_finite, ambient, params)
    distinct("finite", finite, "finite symmetry")
    if ambient is None and kind in ("polynomial", "toric-crosscheck"):
        raise fail("missing key 'ambient'", header_line)

    h11 = one("h11", lambda v: tuple(x.strip() for x in v.split(",")), default=())
    anticanonical = one("anticanonical", _convert, lambda v: tuple(
        Fraction(x.strip()) for x in v.split(",")), "anticanonical value", default=None)
    adjoints = each("adjoint", _parse_adjoint)

    factors = each("factor", _parse_factor)
    loci = tuple(v for v, _ in all_of("locus"))
    audited = _REQUIRED if kind == "toric-crosscheck" else ""
    toric_family = one("toric_family", default=audited)
    expected_adjoint = one("expected_adjoint", _one_of, ADJOINT_OUTCOMES, "expected_adjoint",
                           default=audited)
    expected_toric = one("expected_toric", _one_of, SCAN_OUTCOMES, "expected_toric",
                         default=audited)

    return CaseRecord(
        id=case_id, kind=kind, theorem=theorem, expected=expected, aut=aut,
        provenance=provenance, ambient=ambient, params=params,
        variety=variety, centers=centers, torus=torus, finite=finite,
        semisimple=semisimple, h11_labels=h11, anticanonical=anticanonical,
        adjoints=adjoints, product_factors=factors, loci=loci, toric_family=toric_family,
        expected_adjoint=expected_adjoint, expected_toric=expected_toric)


_KEYS = {"kind", "theorem", "expected", "aut", "note", "provenance", "ambient", "param",
         "variety", "center", "torus", "finite", "semisimple", "h11", "anticanonical",
         "adjoint", "factor", "locus", "toric_family", "expected_adjoint", "expected_toric"}


def _convert(text, convert, what):
    """``convert(text)``; a bad number is a CatalogError."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"bad {what} {text!r}") from None


def _parse_kind(value):
    if value not in KINDS:
        raise CatalogError(f"unknown kind {value!r}")
    return value


def _one_of(value, allowed, what):
    if value not in allowed:
        raise CatalogError(f"bad {what} {value!r}: not one of {', '.join(allowed)}")
    return value


def _parse_expected(value):
    if value == "full_cone":
        return ("full_cone",)
    if value == "see_toric":
        return ("see_toric",)
    if value.startswith("subcone(") and value.endswith(")"):
        try:
            dim = int(value[len("subcone("):-1])
        except ValueError:
            pass
        else:
            if dim < 1:
                raise CatalogError(f"subcone dimension {dim} is below 1")
            return ("subcone", dim)
    raise CatalogError(f"bad expected verdict {value!r}")


def _parse_factor(value):
    """(name, tag) of a product factor ``NAME : full_cone`` or ``NAME :
    families``, NAME a toric family; ``products`` derives the rest."""
    name, _, tag = (part.strip() for part in value.partition(":"))
    return name, _one_of(tag, ("full_cone", "families"), "factor verdict")


def _parse_param(value):
    """(name, excluded values) of ``name [excludes v, ...]``."""
    head, _, tail = value.partition(" excludes ")
    name = head.strip()
    if not name.isidentifier():
        raise CatalogError(f"bad parameter name {name!r}")
    if not tail:
        return name, ()
    try:
        return name, tuple(Fraction(x.strip()) for x in tail.split(","))
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"bad excluded value in {value!r}") from None


def _parse_ambient(value, params):
    from .polyring import AmbientSpace
    factors = []
    for chunk in value.split("|"):
        names = tuple(chunk.split())
        if len(names) < 2:
            raise CatalogError("ambient factor needs >= 2 coordinates")
        factors.append(names)
    ambient = AmbientSpace.product(*factors)
    clash = set(ambient.coords) & set(params.names)
    if clash:
        raise CatalogError(f"names {sorted(clash)} are both coordinates and parameters")
    return ambient


def _parse_poly(value, ambient, params):
    """A ``variety`` equation or ``ideal`` generator: a zero polynomial would
    cut out nothing, and every span question on it is trivially solved."""
    if ambient is None:
        raise CatalogError("polynomial data without an ambient")
    from .polyring import parse_poly
    poly = parse_poly(value, ambient, params)
    if poly.is_zero():
        raise CatalogError(f"{value.strip()!r} is the zero polynomial")
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


def _parse_center(value, ambient, params):
    if ambient is None:
        raise CatalogError("center without an ambient")
    from .symmetry import SubvarietyPresentation
    stage = 1
    rest = value.strip()
    if rest.startswith("stage "):
        head, _, rest = rest.partition(":")
        stage = _convert(head.strip()[len("stage "):], int, "center stage")
        rest = rest.strip()
    curve = None
    ideal = ()
    if rest.startswith("curve("):
        from .curves import ParamCurve
        body, rest = _take_call(rest, "curve")
        curve = ParamCurve.from_texts(_split_args(body), ambient, params)
        if rest.startswith("with "):
            rest = rest[len("with "):]
    if rest.startswith("ideal("):
        body, rest = _take_call(rest, "ideal")
        ideal = tuple(_parse_poly(t, ambient, params) for t in _split_args(body))
    if rest:
        raise CatalogError(f"trailing center data {rest!r}")
    if curve is None and not ideal:
        raise CatalogError("empty center")
    return Center(stage, SubvarietyPresentation(ideal=ideal, curve=curve))


def _parse_torus(value, ambient):
    body, rest = _take_call(value, "weights")
    if body is None or rest:
        raise CatalogError("torus must be weights(...)")
    weights = tuple(_convert(x, int, "torus weight") for x in _split_args(body))
    if ambient is None:
        raise CatalogError("torus without an ambient")
    if len(weights) != len(ambient.coords):
        raise CatalogError(f"torus weight length {len(weights)} != "
                           f"{len(ambient.coords)} coordinates")
    from .symmetry import TorusGenerator
    return TorusGenerator(ambient, weights)


def _parse_finite(value, ambient, params):
    if ambient is None:
        raise CatalogError("finite symmetry without an ambient")
    parts = [p.strip() for p in value.split(" : ")]
    if len(parts) != 4:
        raise CatalogError("finite symmetry needs name : order : factors : map")
    name = parts[0]
    if not parts[1].startswith("order "):
        raise CatalogError("expected order clause")
    order = _convert(parts[1][len("order "):], int, "finite order")
    if order < 1:
        raise CatalogError(f"finite order {order} is below 1")
    declared = _images(parts[2], "factors =", "factors entry")
    body, rest = _take_call(parts[3], "map")
    if body is None or rest:
        raise CatalogError("expected map(...) clause")
    from .symmetry import MonomialAutomorphism
    tau = MonomialAutomorphism.from_images(_split_args(body), ambient, params)
    computed = tuple(f + 1 for f in tau.factor_map)
    if computed != declared:
        raise CatalogError(f"declared factors {declared} != computed {computed}")
    return (name, order, tau)


def _images(clause, head, what):
    """The 1-based images of a ``head (i j ...)`` clause, such as
    ``factors = (2 1)``."""
    if not (clause.startswith(head + " (") and clause.endswith(")")):
        raise CatalogError(f"expected {head} (...) clause")
    return tuple(_convert(x, int, what) for x in clause[len(head) + 2:-1].split())


def _parse_adjoint(value):
    """(name, rows, class images) of ``name : matrix(rows) : classes (...)``:
    the action on the torus, and the 0-based image of each h11 label."""
    parts = [p.strip() for p in value.split(" : ")]
    body, tail = _take_call(parts[1], "matrix") if len(parts) == 3 else (None, "")
    if body is None or tail:
        raise CatalogError("adjoint must be name : matrix(...) : classes (...)")
    name = parts[0]
    rows = [r.strip() for r in body.split(";")]
    entries = tuple(tuple(_convert(x, Fraction, "matrix entry") for x in row.split())
                    for row in rows)
    if any(len(row) != len(entries[0]) for row in entries):
        raise CatalogError(f"adjoint {name}: ragged rows")
    classes = _images(parts[2], "classes", "classes entry")
    if sorted(classes) != list(range(1, len(classes) + 1)):
        raise CatalogError(f"adjoint {name}: classes {classes} is not a permutation")
    return (name, entries, tuple(c - 1 for c in classes))


def parse_assignments(text):
    """``{name: Fraction}`` of ``k=v, ...``, the ``--params`` of ``toric
    futaki``."""
    out = {}
    for chunk in text.split(","):
        key, _, v = chunk.partition("=")
        key = key.strip()
        if not key or not v:
            raise CatalogError(f"bad parameter assignment {chunk!r}")
        if key in out:
            raise CatalogError(f"repeated parameter {key!r}")
        out[key] = _convert(v.strip(), Fraction, "parameter value")
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_case(record):
    """Consistency findings for one record, the theorem partition included;
    empty list = valid."""
    findings = []
    if record.kind in ("polynomial", "toric-crosscheck"):
        findings.extend(_validate_polynomialish(record))
    elif record.kind == "abstract":
        findings.extend(_validate_abstract(record))
    elif record.kind == "product":
        from .products import _validate_product
        findings.extend(_validate_product(record))
    findings.extend(_validate_loci(record))
    findings.extend(_validate_picard_rank(record))
    if record.kind in ("polynomial", "toric-crosscheck"):
        expected_labels = record.ambient.nfactors + len(record.centers)
        if len(record.h11_labels) != expected_labels:
            findings.append(
                f"h11 label count {len(record.h11_labels)} != factors+centers "
                f"{expected_labels}")
    if record.anticanonical is not None and \
            len(record.anticanonical) != len(record.h11_labels):
        findings.append("anticanonical vector length mismatch")
    if (record.expected == ("see_toric",)) != (record.kind == "toric-crosscheck"):
        findings.append("expected = see_toric exactly when kind = toric-crosscheck")
    if (record.family in EXCEPTION_FAMILIES) != (record.theorem == 2):
        findings.append("theorem tag does not match the partition")
    if record.theorem == 1 and record.expected[0] == "subcone":
        findings.append("theorem 1 record expects a subcone")
    if record.theorem == 2 and record.expected[0] == "full_cone":
        findings.append("theorem 2 record expects the full cone")
    return findings


def _validate_polynomialish(record):
    from .symmetry import torus_eigencheck
    findings = []
    for v_index, v in enumerate(record.torus):
        for g_index, g in enumerate(record.variety):
            reason = torus_eigencheck([g], v)
            if reason:
                findings.append(f"torus {v_index} vs variety generator {g_index}: {reason}")
        for c_index, center in enumerate(record.centers):
            pres = center.presentation
            if pres.ideal:
                reason = torus_eigencheck(list(pres.ideal), v)
                if reason:
                    findings.append(f"torus {v_index} vs center {c_index} ideal: {reason}")
            if pres.curve is not None:
                reason = torus_eigencheck(pres.curve, v)
                if reason:
                    findings.append(f"torus {v_index} vs center {c_index} curve: {reason}")
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
            for d in inv.denominators:
                rest = record.params.uncovered(d)
                if not rest.is_constant():
                    findings.append(f"symmetry {name}: span-solve denominator {d.render()} "
                                    f"vanishes off the excluded values: {rest.render()} = 0")
    return findings


def _validate_abstract(record):
    if not (record.h11_labels and record.anticanonical is not None and record.adjoints):
        return ["abstract record needs h11, anticanonical and an adjoint"]
    findings = []
    rank = len(record.adjoints[0][1])
    for name, m, classes in record.adjoints:
        if len(m) != rank or len(m[0]) != rank:
            findings.append(f"adjoint {name} is not {rank}x{rank}")
        if len(classes) != len(record.h11_labels):
            findings.append(f"adjoint {name}: classes of {len(classes)} labels for "
                            f"{len(record.h11_labels)} h11 labels")
    if not record.provenance:
        findings.append("abstract record without provenance notes")
    return findings


def _validate_loci(record):
    """Every locus must parse over the parameters of the record's toric
    family; ``products`` checks them on a scanned factor."""
    if not record.toric_family:
        return []
    from .toric import FAMILIES
    family = FAMILIES.get(record.toric_family)
    if family is None:
        return [f"unknown toric family {record.toric_family!r}"]
    findings = []
    for eq in record.loci:
        from .polyring import PolyError, parse_equations
        try:
            parse_equations(eq, family.param_names)
        except PolyError as exc:
            findings.append(f"bad locus equation {eq!r} on {record.toric_family}: {exc}")
    return findings


def _validate_picard_rank(record):
    """Dimensions and ranks against the Picard rank N of an ``N.M`` family
    id; no rule for any other id."""
    number = family_number(record.family)
    if number is None:
        return []
    rho = number[0]
    findings = []
    if record.expected[0] == "subcone" and record.expected[1] >= rho:
        findings.append(f"subcone({record.expected[1]}) is not below the Picard rank {rho}")
    if record.h11_labels and len(record.h11_labels) != rho:
        findings.append(f"{len(record.h11_labels)} h11 labels for the Picard rank {rho}")
    if record.toric_family:
        from .toric import FAMILIES
        family = FAMILIES.get(record.toric_family)     # unknown: see _validate_loci
        if family is not None and len(family.rows) - family.dim != rho:
            findings.append(f"toric family {record.toric_family} has Picard rank "
                            f"{len(family.rows) - family.dim}, not {rho}")
    return findings


def validate_catalog(catalog):
    """The findings of every record, then the §-list coverage."""
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
    return findings
