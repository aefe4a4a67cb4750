"""Shipped fixtures: figure matrices, group actions, and the Hoggar data.

Figure matrices are stored as exact Gaussian-integer numerators over a
common denominator; group fixtures as generator image tables.  The
three-qubit Heisenberg-type group, its stabilizing unitaries U and V,
and the fiducial vector are constructed in code.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import numpy as np

from .errors import InputError, NumericError
from .frames import GramMatrix, matrix_group_closure, matrix_key
from .permgroup import GroupAction, Permutation, PermutationGroup, parse_cycles


def _load_data(name: str) -> dict:
    path = resources.files("linepack.data").joinpath(name)
    if not path.is_file():
        raise InputError(f"no such fixture: {name}")
    return json.loads(path.read_text())


def group_from_json(data: dict) -> PermutationGroup:
    """Group from {"degree": n, "generators": [...]} with 0-based images.

    Generators may be image arrays or cycle-notation strings.
    """
    if not isinstance(data, dict) or "degree" not in data or "generators" not in data:
        raise InputError("group JSON needs 'degree' and 'generators'")
    try:
        degree = int(data["degree"])
        gens = [
            parse_cycles(g, degree) if isinstance(g, str) else Permutation(tuple(int(x) for x in g))
            for g in data["generators"]
        ]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed group JSON: {exc}") from None
    return PermutationGroup(degree, gens)


def load_group_fixture(name: str) -> PermutationGroup:
    return group_from_json(_load_data(name))


def agl_line_action() -> GroupAction:
    """AGL(3, 2) acting on the 28 affine lines of F_2^3."""
    return GroupAction(load_group_fixture("agl_f2_3_lines.json"))


def sl2_f8_action() -> GroupAction:
    """SL(2, 8) acting on the 9 points of the projective line over F_8."""
    return GroupAction(load_group_fixture("sl2_f8_projective.json"))


def m11_action() -> GroupAction:
    """The Mathieu group M_11 in its 3-transitive action on 12 points."""
    return GroupAction(load_group_fixture("m11_on_12_points.json"))


def load_figure_gram(name: str) -> GramMatrix:
    """Exact Gram fixture: Gaussian-integer entries over a denominator."""
    data = _load_data(name)
    den = int(data["denominator"])
    n = int(data["n"])
    entries = np.array(
        [[complex(re, im) / den for re, im in row] for row in data["entries"]],
        dtype=np.complex128,
    )
    tokens = [
        [(Fraction(re, den), Fraction(im, den)) for re, im in row] for row in data["entries"]
    ]
    return GramMatrix(n, entries, "rational", tokens)


def figure2_gram() -> GramMatrix:
    """28 x 28 rank-7 projection: the Gram of a 7 x 28 real ETF."""
    return load_figure_gram("figure2.json")


def figure3_gram() -> GramMatrix:
    """12 lines in R^4 (three mutually unbiased bases)."""
    return load_figure_gram("figure3.json")


def figure4_gram() -> GramMatrix:
    """6 lines in C^2 (three mutually unbiased bases)."""
    return load_figure_gram("figure4.json")


# --- three-qubit Heisenberg-type group and the Hoggar fiducial ---------------

# unitarity slack of the matrix closures below; their entries are exact up to rounding
CLOSURE_TOL = 1e-9


def _tensor3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def pauli_tensor_generators() -> list[np.ndarray]:
    """Generators of the 256-element group {i^k T^t M^m tensor cubed}.

    T is the bit flip, M the sign flip; together with the scalar i I_8
    they generate a slightly enlarged three-qubit Weyl-Heisenberg group.
    """
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    m = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    gens = [1j * np.eye(8, dtype=np.complex128)]
    for slot in range(3):
        for base in (t, m):
            factors = [eye, eye, eye]
            factors[slot] = base
            gens.append(_tensor3(*factors))
    return gens


def hoggar_stabilizer_generators() -> tuple[np.ndarray, np.ndarray]:
    """The unitaries U and V fixing the fiducial vector.

    Both are (omega / sqrt 2) times an integer Gaussian matrix, with
    omega = exp(2 pi i / 8); together they generate a group of order
    6048 normalizing the tensor-Pauli group.
    """
    omega = np.exp(2j * np.pi / 8)
    u = np.array(
        [
            [0, 0, -1, 0, 1j, 0, 0, 0],
            [0, 0, -1j, 0, 1, 0, 0, 0],
            [0, 0, 0, 1j, 0, 1, 0, 0],
            [0, 0, 0, 1, 0, 1j, 0, 0],
            [-1, 0, 0, 0, 0, 0, 1j, 0],
            [1j, 0, 0, 0, 0, 0, -1, 0],
            [0, 1j, 0, 0, 0, 0, 0, 1],
            [0, -1, 0, 0, 0, 0, 0, -1j],
        ],
        dtype=np.complex128,
    )
    v = np.array(
        [
            [0, 0, 0, 0, 1j, -1, 0, 0],
            [0, 0, 0, 0, -1j, -1, 0, 0],
            [1j, 1, 0, 0, 0, 0, 0, 0],
            [-1j, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1j, -1, 0, 0, 0, 0],
            [0, 0, -1j, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1j, 1],
            [0, 0, 0, 0, 0, 0, -1j, 1],
        ],
        dtype=np.complex128,
    )
    return (omega / np.sqrt(2)) * u, (omega / np.sqrt(2)) * v


def fiducial_vector() -> np.ndarray:
    """Unit vector whose tensor-Pauli orbit projects onto the 64 Hoggar lines."""
    return np.array([1 + 1j, 0, -1, 1, -1j, -1, 0, 0], dtype=np.complex128) / np.sqrt(6)


def hoggar_heisenberg_action(include_order_check: bool = False) -> GroupAction:
    """Permutation action behind the Hoggar scheme, on 256 points.

    The points are the elements of the 256-element tensor-Pauli group K.
    Generators: left translation by each generator of K, plus conjugation
    by the fiducial stabilizers U and V (which normalize K).  This is the
    coset action of the 1,548,288-element product group on K.
    """
    kgens = pauli_tensor_generators()
    elements = matrix_group_closure(kgens, 512, CLOSURE_TOL)
    if len(elements) != 256:
        raise NumericError(f"tensor-Pauli closure has {len(elements)} elements, expected 256")
    index = {matrix_key(m): i for i, m in enumerate(elements)}
    gens = []
    for g in kgens:
        images = tuple(index[matrix_key(g @ x)] for x in elements)
        gens.append(Permutation(images))
    u, v = hoggar_stabilizer_generators()
    for h in (u, v):
        h_inv = h.conj().T
        images = []
        for x in elements:
            y = h @ x @ h_inv
            key = matrix_key(y)
            if key not in index:
                raise NumericError("stabilizer generator does not normalize the group")
            images.append(index[key])
        gens.append(Permutation(tuple(images)))
    group = PermutationGroup(256, gens)
    if include_order_check:
        stab = matrix_group_closure([u, v], 10_000, CLOSURE_TOL)
        if len(stab) != 6048:
            raise NumericError(f"stabilizer closure has {len(stab)} elements, expected 6048")
    return GroupAction(group)


def hoggar_central_element_indices() -> dict[str, int]:
    """Point indices of distinguished group elements in the 256-point action.

    Keys name the element: scalars -1, i, -i times the identity and the
    four single-slot representatives used by the spherical value table.
    """
    kgens = pauli_tensor_generators()
    elements = matrix_group_closure(kgens, 512, CLOSURE_TOL)
    index = {matrix_key(m): i for i, m in enumerate(elements)}
    eye2 = np.eye(2, dtype=np.complex128)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    m = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    named = {
        "identity": np.eye(8, dtype=np.complex128),
        "minus_identity": -np.eye(8, dtype=np.complex128),
        "i_identity": 1j * np.eye(8, dtype=np.complex128),
        "minus_i_identity": -1j * np.eye(8, dtype=np.complex128),
        "m_slot0": _tensor3(m, eye2, eye2),
        "t_slot0": _tensor3(t, eye2, eye2),
        "tm_slot0": _tensor3(t @ m, eye2, eye2),
        "tm_slot1": _tensor3(eye2, t @ m, eye2),
    }
    return {name: index[matrix_key(mat)] for name, mat in named.items()}
