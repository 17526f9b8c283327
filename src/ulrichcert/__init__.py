"""ulrichcert: exact certification of Ulrich line bundles on a sixteen-nodes
quartic K3 cover of a degree-four polarized quotient surface.

Everything is computed over exact scalar domains (prime fields and the
rationals); re-running any pipeline yields bit-identical results.

The exported names are resolved on first use (PEP 562), so importing the
package loads none of its layers.
"""
import importlib

__version__ = "0.1.0"

# exported name -> defining module
_EXPORTS = {
    "certify_ulrich": "cohomology", "descend_to_enriques": "cohomology",
    "h0_forms_through_points": "cohomology",
    "PrimeField": "fields", "QQ": "fields",
    "Genus2Curve": "kummer", "load_corpus_quartic": "kummer", "node_point": "kummer",
    "verify_sixteen_nodes": "kummer",
    "BundleRecipe": "picard", "DivisorClass": "picard", "build_theta_star": "picard",
    "chi_k3": "picard", "even_eight_test": "picard", "hyperplane_class": "picard",
    "node_class": "picard", "numerical_ulrich": "picard", "pairing": "picard",
    "polarization": "picard", "trope": "picard",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def _checked_make(cls, iterable):
    """A namedtuple record's ``_make``, built through ``cls(...)`` so that
    ``_make`` and ``_replace`` (which calls ``_make``) run the record's
    validation; set as ``_make = classmethod(_checked_make)``."""
    values = tuple(iterable)
    if len(values) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
    return cls(*values)
