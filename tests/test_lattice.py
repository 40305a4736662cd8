"""Point-dipole hyperfine couplings from the crystal structure."""

import math

import numpy as np
import pytest

from jumpspec.lattice import (CrystalModel, FieldOrientation, Site,
                              angle_sweep, assign_site, dipolar_coupling,
                              load_structure, parse_structure)


@pytest.fixture(scope="module")
def model():
    return load_structure()


def test_shipped_structure_contents(model):
    assert len(model.sites) == 10
    labels = sorted(set(s.label for s in model.sites))
    assert labels == ["I", "II", "III"]
    radii = sorted({round(np.linalg.norm(model.site_vector(s)), 3)
                    for s in model.sites})
    assert radii == [3.707, 3.867, 5.687]


def test_reference_coupling_values(model):
    """Near-axial field: shell-resolved couplings at the reference angle."""
    ori = FieldOrientation(theta=0.88, beta=0.0)
    by_label = {}
    for s in model.sites:
        a, b = dipolar_coupling(model.site_vector(s), model, ori)
        by_label.setdefault(s.label, []).append((a, b))
    a1 = [a for a, _ in by_label["I"]]
    b1 = [b for _, b in by_label["I"]]
    assert np.allclose(a1, 40e3, rtol=0.15)
    assert min(b1) > 35e3 * 0.85 and max(b1) < 48e3 * 1.15
    a3 = [abs(a) for a, _ in by_label["III"]]
    assert np.allclose(a3, 23e3, rtol=0.15)
    b3 = [b for _, b in by_label["III"]]
    assert np.allclose(b3, 8e3, rtol=0.15)


def test_b_is_never_negative(model):
    for s in model.sites:
        for th in (-1.0, 0.0, 0.7):
            _, b = dipolar_coupling(model.site_vector(s), model,
                                    FieldOrientation(theta=th, beta=0.1))
            assert b >= 0.0


def test_inverse_cube_scaling(model):
    ori = FieldOrientation(theta=0.3, beta=0.0)
    vec = model.site_vector(model.sites[0])
    a1, b1 = dipolar_coupling(vec, model, ori)
    a2, b2 = dipolar_coupling(2.0 * vec, model, ori)
    assert a2 == pytest.approx(a1 / 8.0, rel=1e-9)
    assert b2 == pytest.approx(b1 / 8.0, rel=1e-9)


def test_orientation_small_angle_guard():
    with pytest.raises(ValueError):
        FieldOrientation(theta=10.0, beta=0.0)
    d = FieldOrientation(theta=0.0, beta=0.0).direction()
    assert np.allclose(d, [0, 0, 1])
    d = FieldOrientation(theta=1.0, beta=0.0).direction()
    assert d[0] > 0       # positive theta tilts toward +a


def test_angle_sweep_and_assignment(model):
    sweep = angle_sweep(model, beta=0.2, theta_range=(-1.0, 1.0),
                        n_points=41)
    assert sweep.a_hz.shape == (10, 41)
    # a synthetic measurement taken from the table itself is recovered
    j = sweep.labels.index("III")
    i = 25
    cands = assign_site((sweep.a_hz[j, i], 500.0, sweep.b_hz[j, i], 500.0),
                        sweep)
    assert cands and cands[0].label == "III"
    # on-axis sites are symmetric in theta, so only |theta| is determined
    assert abs(abs(cands[0].theta) - abs(sweep.thetas[i])) < 0.1
    # an impossible measurement yields no candidates
    assert assign_site((500e3, 100.0, 500e3, 100.0), sweep) == []


def test_assignment_requires_positive_sigmas(model):
    sweep = angle_sweep(model, beta=0.0, theta_range=(-0.5, 0.5), n_points=5)
    with pytest.raises(ValueError):
        assign_site((20e3, 0.0, 40e3, 1e3), sweep)


def test_parse_structure_roundtrip():
    text = """
lattice
a 5.0
b 5.0
c 11.0
end
defect 0.0 0.0 0.5
sites
0.5 0.5 0.5 I
0.0 0.0 1.0 III
end
"""
    m = parse_structure(text)
    assert len(m.sites) == 2
    assert np.allclose(m.lattice, np.diag([5.0, 5.0, 11.0]))
    vec = m.site_vector(Site(frac=(0.0, 0.0, 1.0), label="III"))
    assert np.allclose(vec, [0, 0, 5.5])


def test_parse_structure_rejects_degenerate_lattice():
    with pytest.raises(ValueError):
        CrystalModel(lattice=np.zeros((3, 3)), sites=(),
                     defect_frac=(0, 0, 0))
