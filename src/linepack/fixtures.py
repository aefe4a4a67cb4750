"""Shipped fixtures: figure matrices, named groups, and the Hoggar data.

Figure matrices are stored as exact Gaussian-integer numerators over a
common denominator; `named_group` is the one table of named groups.  The
three-qubit Heisenberg-type group, its stabilizing unitaries U and V,
and the fiducial vector are constructed in code.
"""

from __future__ import annotations

import json
import re
from importlib import resources

import numpy as np

from .errors import InputError, NumericError, refuse_past_limit
from .frames import GramMatrix, matrix_group_closure, matrix_key
from .heisenberg import heisenberg_permutation_action
from .permgroup import GroupAction, Permutation, PermutationGroup, action_on, parse_cycles


def _load_data(name: str) -> dict:
    """The parsed JSON of a file directly in the package's data directory."""
    path = next((p for p in resources.files("linepack.data").iterdir() if p.name == name), None)
    if path is None or not path.is_file():
        raise InputError(f"no such fixture: {name}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise InputError(f"fixture {name} is not valid JSON: {exc}") from None


def group_from_json(data: dict) -> PermutationGroup:
    """Group from {"degree": n, "generators": [...]} with 0-based images.

    Generators may be image arrays or cycle-notation strings.  Their
    degree x generators images are refused past the array limit before
    any generator is parsed.
    """
    if not isinstance(data, dict) or "degree" not in data or "generators" not in data:
        raise InputError("group JSON needs 'degree' and 'generators'")
    degree, gens = data["degree"], data["generators"]
    # JSON integers only: a float, a boolean or a string is no degree or image
    if type(degree) is not int or not isinstance(gens, list) or not all(
        isinstance(g, str) or (isinstance(g, list) and all(type(x) is int for x in g)) for g in gens
    ):
        raise InputError("group JSON needs an integer degree and generators of integer images")
    refuse_past_limit(degree * len(gens), "the group's generator images")
    gens = [parse_cycles(g, degree) if isinstance(g, str) else Permutation(tuple(g)) for g in gens]
    return PermutationGroup(degree, gens)


_SHIPPED = {"agl": "agl_f2_3_lines.json", "sl2_f8": "sl2_f8_projective.json", "m11": "m11_on_12_points.json"}

# family -> (least n, generator count, generator images on n points)
_FAMILIES = {
    "s": (2, 2, lambda m: [[*range(1, m), 0], [1, 0, *range(2, m)]]),
    "z": (1, 1, lambda n: [[*range(1, n), 0]]),
    "d": (3, 2, lambda n: [[*range(1, n), 0], [-i % n for i in range(n)]]),
}

GROUP_NAMES = ", ".join(
    [*_SHIPPED, "hoggar", "heis<p> (p an odd prime)"] + [f"{f}<n> (n >= {row[0]})" for f, row in _FAMILIES.items()]
)


def named_group(name: str) -> PermutationGroup:
    """The group ``fixture:NAME`` names, one of `GROUP_NAMES` or else a data file, built on each call."""
    if name == "hoggar":
        return hoggar_heisenberg_action().group
    match = re.fullmatch(r"(heis|s|z|d)(0|[1-9][0-9]*)", name)
    if match is None:
        return group_from_json(_load_data(_SHIPPED.get(name, name)))
    family, n = match[1], int(match[2])
    if family == "heis":
        return heisenberg_permutation_action(n).group
    least, count, images = _FAMILIES[family]
    if n < least:
        raise InputError(f"no such fixture: {name}; {family}<n> needs n >= {least}")
    refuse_past_limit(count * n, f"the generator images of {name}")
    return PermutationGroup(n, images(n))


def load_figure_gram(name: str) -> GramMatrix:
    """Gram fixture stored as Gaussian-integer entries over a denominator."""
    data = _load_data(name)
    den = int(data["denominator"])
    entries = np.array(
        [[complex(re, im) / den for re, im in row] for row in data["entries"]],
        dtype=np.complex128,
    )
    return GramMatrix(int(data["n"]), entries)


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


_T = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_M = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _tensor3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def pauli_tensor_generators() -> list[np.ndarray]:
    """Generators of the 256-element group {i^k T^t M^m tensor cubed}.

    T is the bit flip, M the sign flip; together with the scalar i I_8
    they generate a slightly enlarged three-qubit Weyl-Heisenberg group.
    """
    eye = np.eye(2, dtype=np.complex128)
    singles = [[base if i == slot else eye for i in range(3)] for slot in range(3) for base in (_T, _M)]
    return [1j * np.eye(8, dtype=np.complex128)] + [_tensor3(*factors) for factors in singles]


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


def _pauli_elements() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The generators of the tensor-Pauli group K and its 256 elements, identity first."""
    kgens = pauli_tensor_generators()
    elements = matrix_group_closure(kgens, 512)
    if len(elements) != 256:
        raise NumericError(f"tensor-Pauli closure has {len(elements)} elements, expected 256")
    return kgens, elements


def hoggar_heisenberg_action() -> GroupAction:
    """Permutation action behind the Hoggar scheme, on 256 points.

    The points are the elements of the 256-element tensor-Pauli group K.
    Generators: left translation by each generator of K, plus conjugation
    by the fiducial stabilizers U and V (which normalize K).  This is the
    coset action of the 1,548,288-element product group on K.
    """
    kgens, elements = _pauli_elements()
    maps = [g.__matmul__ for g in kgens]
    for h in hoggar_stabilizer_generators():
        maps.append(lambda x, h=h, h_inv=h.conj().T: h @ x @ h_inv)
    return action_on(elements, matrix_key, maps)


def hoggar_central_element_indices() -> dict[str, int]:
    """Point indices of distinguished group elements in the 256-point action.

    Keys name the element: scalars -1, i, -i times the identity and the
    four single-slot representatives used by the spherical value table.
    """
    index = {matrix_key(m): i for i, m in enumerate(_pauli_elements()[1])}
    eye2 = np.eye(2, dtype=np.complex128)
    named = {
        "identity": np.eye(8, dtype=np.complex128),
        "minus_identity": -np.eye(8, dtype=np.complex128),
        "i_identity": 1j * np.eye(8, dtype=np.complex128),
        "minus_i_identity": -1j * np.eye(8, dtype=np.complex128),
        "m_slot0": _tensor3(_M, eye2, eye2),
        "t_slot0": _tensor3(_T, eye2, eye2),
        "tm_slot0": _tensor3(_T @ _M, eye2, eye2),
        "tm_slot1": _tensor3(eye2, _T @ _M, eye2),
    }
    return {name: index[matrix_key(mat)] for name, mat in named.items()}
