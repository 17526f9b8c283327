"""Access to bundled data files: the reference Kummer quartic.

The directory can be overridden with the ULRICHCERT_CORPUS environment
variable, which is how tests and callers substitute their own inputs.
"""
from __future__ import annotations

import os

ENV_VAR = "ULRICHCERT_CORPUS"


def corpus_dir() -> str:
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.dirname(os.path.realpath(__file__)), "corpus")


def read_text(name: str) -> str:
    """The text of ``<name>.txt``; ``name`` must be a bare file name, so no
    corpus name reaches outside the corpus directory."""
    if os.path.basename(name) != name:
        raise ValueError(f"corpus name {name!r} is not a bare file name")
    path = os.path.join(corpus_dir(), f"{name}.txt")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"corpus file {path} not found")
    with open(path) as handle:
        return handle.read()

