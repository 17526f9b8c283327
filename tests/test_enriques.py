import pytest

from ulrichcert.enriques import (DescentInference, JUSTIFICATIONS, chi_enriques, halve,
                                 ulrich_transfer)
from ulrichcert.picard import chi_k3, default_recipe, polarization


def test_chi_of_polarization():
    assert chi_enriques(4) == 3


def test_chi_of_trivial_class():
    assert chi_enriques(0) == 1


def test_chi_of_descended_candidate():
    assert chi_enriques(6) == 4
    # consistency with the cover: chi upstairs is twice chi downstairs
    assert 2 * chi_enriques(6) == chi_k3(default_recipe().divisor())


def test_chi_rejects_odd_square():
    with pytest.raises(ValueError):
        chi_enriques(3)


def test_halve():
    assert halve(8) == 4
    assert halve(12) == 6
    with pytest.raises(ValueError):
        halve(7)


def test_transfer_chain_complete():
    chain = ulrich_transfer()
    assert len(chain) == 3
    assert chain[-1].justification == "summand-ulrich"
    assert "Ulrich" in chain[-1].conclusion


def test_inference_justifications_whitelisted():
    with pytest.raises(ValueError, match="^unknown justification 'made-up-rule'$"):
        DescentInference("p", "c", "made-up-rule")
    with pytest.raises(ValueError, match="^unknown justification 'made-up-rule'$"):
        DescentInference(premise="p", conclusion="c", justification="made-up-rule")
    for key in JUSTIFICATIONS:
        DescentInference("p", "c", key)


def test_euler_characteristic_consistency():
    # chi upstairs splits as chi(H_Y) + chi(H_Y + K_Y); K_Y is numerically
    # trivial so both summands equal 3
    assert chi_k3(polarization()) == 6
    chi_hy = chi_enriques(4)
    chi_hy_twisted = chi_enriques(4)  # K_Y.D = K_Y^2 = 0
    assert chi_hy + chi_hy_twisted == chi_k3(polarization())
    assert 2 * chi_hy == 6
