import pathlib
import sys

import pytest

from ulrichcert import cohomology
from ulrichcert.fields import QQ, PrimeField
from ulrichcert.kummer import Genus2Curve, load_corpus_quartic
from ulrichcert.picard import build_theta_star

# the tests import scripts/source_lines.py, the one probe of what a command loads
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))


@pytest.fixture(scope="session")
def gf():
    return PrimeField(32003)


@pytest.fixture(scope="session")
def curve():
    return Genus2Curve((1, -1, 2, -2, 3, -3))


@pytest.fixture(scope="session")
def quartic(gf):
    return load_corpus_quartic(gf)


@pytest.fixture(scope="session")
def theta():
    return build_theta_star()


def passing_quadric_check(h, m, points_by_label, ring):
    return cohomology.CheckRecord(
        name="no-quadric-through-twelve-nodes",
        justification="doubling+sections-through-nodes", inputs={},
        value={"h0": 0, "witness": None}, passed=True)


@pytest.fixture
def certified(request, monkeypatch, curve):
    """The reference run, certified for real with the quadric check stubbed
    to pass. The stub stays in place for the whole test, so the rebuild in
    ``descend`` runs the same check. Parametrise it indirectly with the
    body's prime, None for a run over Q; the default is 32003."""
    monkeypatch.setattr(cohomology, "check_m_minus_h", passing_quadric_check)
    prime = getattr(request, "param", 32003)
    cert = cohomology.certify_ulrich(
        curve, load_corpus_quartic(QQ if prime is None else PrimeField(prime)))
    assert cert.verdict == "certified"
    return cert
