"""Shared fixtures: small groups used across the test suite."""

import sys

import pytest

from crysturn.groups import AffineMap, build_group
from crysturn.linalg import IntMatrix, vector, zero_vector

ROT3 = IntMatrix.from_rows([[0, -1], [1, -1]])
SWAP2 = IntMatrix.from_rows([[0, 1], [1, 0]])
SHEAR2 = IntMatrix.from_rows([[1, 1], [0, 1]])
ROT6 = IntMatrix.from_rows([[1, -1], [1, 0]])
G32121_GEN = IntMatrix.from_rows([[1, -1, 0], [0, -1, 0], [0, 0, -1]])

GL2_GENS = [SWAP2, SHEAR2]


@pytest.fixture(scope="session")
def z_line():
    """The group Z, with its full (finite) normaliser {1, -1}."""
    return build_group(1, [], normaliser_gens=[IntMatrix.from_rows([[-1]])], name="Z")


@pytest.fixture(scope="session")
def infinite_dihedral():
    gen = AffineMap(zero_vector(1), IntMatrix.from_rows([[-1]]))
    return build_group(
        1, [gen], normaliser_gens=[IntMatrix.from_rows([[-1]])], name="infinite dihedral"
    )


@pytest.fixture(scope="session")
def z_plane():
    return build_group(2, [], normaliser_gens=GL2_GENS, name="Z^2")


@pytest.fixture(scope="session")
def point_reflection_2d():
    gen = AffineMap(zero_vector(2), -IntMatrix.identity(2))
    return build_group(2, [gen], normaliser_gens=GL2_GENS, name="<Z^2, -I>")


@pytest.fixture(scope="session")
def point_reflection_3d():
    gen = AffineMap(zero_vector(3), -IntMatrix.identity(3))
    gl3 = [
        IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        IntMatrix.diagonal([-1, 1, 1]),
        IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    return build_group(3, [gen], normaliser_gens=gl3, name="<Z^3, -I>")


@pytest.fixture(scope="session")
def p3_group():
    gen = AffineMap(zero_vector(2), ROT3)
    return build_group(2, [gen], normaliser_gens=[ROT6, SWAP2], name="p3")


@pytest.fixture(scope="session")
def klein_bottle():
    gen = AffineMap(vector(["1/2", 0]), IntMatrix.diagonal([1, -1]))
    return build_group(
        2,
        [gen],
        normaliser_gens=[IntMatrix.diagonal([-1, 1]), IntMatrix.diagonal([1, -1])],
        name="pg",
    )


@pytest.fixture(scope="session")
def screw_group():
    """P2_1: torsion-free with a 2_1 screw axis."""
    gen = AffineMap(vector([0, 0, "1/2"]), IntMatrix.diagonal([-1, -1, 1]))
    gens = [
        IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        IntMatrix.diagonal([1, 1, -1]),
        IntMatrix.diagonal([-1, 1, 1]),
    ]
    return build_group(3, [gen], normaliser_gens=gens, name="P2_1")


@pytest.fixture(scope="session")
def g32121():
    """The dim-3 group with holonomy generated by [[1,-1,0],[0,-1,0],[0,0,-1]]."""
    gen = AffineMap(zero_vector(3), G32121_GEN)
    gens = [
        IntMatrix.from_rows([[-1, 1, 1], [0, 1, 2], [0, 1, 1]]),
        IntMatrix.diagonal([1, 1, -1]),
        -IntMatrix.identity(3),
    ]
    return build_group(3, [gen], normaliser_gens=gens, name="3/2/1/2/1")


@pytest.fixture
def default_digit_limit():
    """Python's default 4300-digit limit on int <-> str, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
