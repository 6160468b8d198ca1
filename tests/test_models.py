"""Prescribed homology bases for disks, annuli, and the one-holed torus."""
from dataclasses import replace

import pytest

from sutured_tqft.errors import InternalConsistencyError
from sutured_tqft.exterior import RING_F2, RING_Z
from sutured_tqft.homology import RelativeH1
from sutured_tqft.linalg import det_q, f2_invert
from sutured_tqft.models import (SurfaceModel, annulus_model, disk_arc_chain,
                                 disk_model, one_holed_torus)
from sutured_tqft.surface import (chain_boundary, chain_from_path, disk_position,
                                  validate_surface)


def check_model(model: SurfaceModel, ring: str = RING_Z) -> None:
    """Internal consistency: bases are bases and the pairing is unimodular."""
    model.basis_plus(ring)
    model.basis_minus(ring)
    n = len(model.pairing)
    if n != len(model.beta_minus) or any(len(r) != len(model.beta_plus)
                                         for r in model.pairing):
        raise InternalConsistencyError("model pairing does not match the bases")
    if ring == RING_F2:
        rows = [sum((abs(v) % 2) << j for j, v in enumerate(r)) for r in model.pairing]
        invertible = f2_invert(rows, n) is not None
    else:
        invertible = abs(det_q([list(r) for r in model.pairing])) == 1
    if not invertible:
        raise InternalConsistencyError(f"model pairing is not invertible over {ring}")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_disk_model_is_basis(n):
    model = disk_model(n)
    check_model(model, RING_Z)
    check_model(model, RING_F2)
    assert model.rank == n - 1
    assert len(model.beta_minus) == n - 1


@pytest.mark.parametrize("pairing, message", [
    (((0, -1), (1, 0), (0, 0)), "does not match"),
    (((0, -1), (1,)), "does not match"),
    (((0, -2), (1, 0)), "not invertible"),
])
def test_check_model_rejects_a_bad_pairing(pairing, message):
    # typed errors, so the check survives python -O
    model = replace(annulus_model(), pairing=pairing)
    for ring in (RING_Z, RING_F2):
        with pytest.raises(InternalConsistencyError, match=message):
            check_model(model, ring)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_disk_arc_boundaries(n):
    s = disk_model(n).surface
    for i in range(1, 2 * n - 1):
        ch = disk_arc_chain(s, n, i)
        lo = disk_position("a", i)
        hi = disk_position("a", (i + 2 - 1) % (2 * n) + 1)
        assert chain_boundary(s, ch) == {hi: 1, lo: -1}


def test_disk_arc_wraps():
    # beta_{2n-1} ends at alpha_1 across the suture numbering seam
    n = 3
    s = disk_model(n).surface
    ch = disk_arc_chain(s, n, 2 * n - 1)
    b = chain_boundary(s, ch)
    assert b[disk_position("a", 1)] == 1


def test_disk_pairing_shape():
    model = disk_model(4)
    assert len(model.pairing) == 3
    assert model.pairing[0] == (1, -1, 0)
    assert abs(det_q(model.pairing)) == 1


def test_disk_model_rejects_tiny():
    with pytest.raises(ValueError):
        disk_model(1)


def test_annulus_model():
    model = annulus_model()
    validate_surface(model.surface)
    assert model.surface.euler_characteristic() == 0
    assert model.surface.genus() == 0
    check_model(model, RING_Z)
    check_model(model, RING_F2)
    assert model.pairing == ((0, -1), (1, 0))


def test_annulus_core_is_outer_circle_class():
    model = annulus_model()
    s = model.surface
    h1 = RelativeH1(s, rel=sorted(s.marks["alpha_plus"]))
    core = h1.reduce(chain_from_path(s, [15, 13, 11, 9]), RING_Z)  # inner circle
    outer = h1.reduce(model.beta_plus[1], RING_Z)
    assert core == outer


def test_annulus_arc_boundary():
    model = annulus_model()
    s = model.surface
    b = chain_boundary(s, model.beta_plus[0])
    # spanning arc from the inner alpha+ (7) to the outer alpha+ (1)
    assert b == {1: 1, 7: -1}
    assert chain_boundary(s, model.beta_plus[1]) == {}


def test_one_holed_torus():
    s = one_holed_torus()
    validate_surface(s)
    assert s.euler_characteristic() == -1
    assert s.genus() == 1
    assert len(s.boundary_circles()) == 1
    h1 = RelativeH1(s, rel=sorted(s.marks["alpha_plus"]))
    assert h1.rank == 2
