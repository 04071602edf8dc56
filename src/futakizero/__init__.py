"""Exact-arithmetic verification of Futaki-character vanishing on the
catalogued K-polystable Fano threefolds: symmetry/adjoint constraint
machinery over Q(params), an exact toric moment-polytope engine, and a
declarative case catalog with a verifying CLI."""

__version__ = "1.0.0"

# Each public name and the submodule defining it.  Submodules load on first
# use, so that a caller of the toric engine alone does not load the others.
_EXPORTS = {
    "Verdict": "character", "vanishing_verdict": "character",
    "product_verdict": "products",
    "load_catalog": "catalog", "validate_case": "catalog", "validate_catalog": "catalog",
    "AmbientSpace": "polyring", "MultiPoly": "polyring", "ParamField": "polyring",
    "parse_poly": "polyring",
    "MonomialAutomorphism": "symmetry", "TorusGenerator": "symmetry",
    "adjoint_matrix": "symmetry",
    "Polytope": "toric", "class_to_polytope": "toric", "futaki_vector": "toric",
    "zero_locus_scan": "toric",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
