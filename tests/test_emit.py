"""The CLI's JSON emitter against its oracle, json.dumps(indent=2, sort_keys=True).

``cli._dumps`` lays containers out itself and hands scalars to the C
encoder; its output must equal the standard library's indented dump byte
for byte, on generated payloads and on the stdout of every command.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linepack import cli, fixtures
from linepack.frames import GramMatrix


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=cli._json_default)


def assert_same_as_oracle(value) -> None:
    try:
        expected = oracle(value)
    except TypeError:
        with pytest.raises(TypeError):
            cli._dumps(value)
        return
    assert cli._dumps(value) == expected


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 1.5e300]
SPECIAL_STRINGS = ["", "\x00", "a\x00b", "\x1f\x7f", "é", " ", "😀", '"\\', "%", "%s", "\n\t"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(SPECIAL_STRINGS),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
)

# a small key pool, so that dicts in one list often share a key set, in
# either insertion order, and sometimes do not
KEYS = st.sampled_from(["a", "b", "%c", "é", "\x00"])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.lists(st.dictionaries(KEYS, children, max_size=3), max_size=5),
        st.lists(st.lists(scalars, max_size=3), max_size=5),
    )


payloads = st.recursive(scalars, containers, max_leaves=40)


@given(payloads)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [[], {}], "d": [{}, {}]})
@example([{"x": 1, "y": [1.5, True]}, {"y": [], "x": np.int64(2)}, {"x": {"deep": [None]}, "y": 0}])
@example([{"a": 1}, {"b": 2}, {"a": 3, "b": 4}, {"b": 5, "a": 6}])
@example([[True, 1, np.bool_(False), np.int64(0)], [1.0, np.float64(-0.0), math.nan, -math.inf]])
def test_emitter_matches_oracle(value):
    assert_same_as_oracle(value)


@st.composite
def shared_payloads(draw):
    """Payloads that hold one container object at several positions and depths.

    `inner` sits twice at depth 1 and once at depth 2, beside `outer`, which
    may hold `inner` too; a random body holds either at any depth.
    """
    inner = draw(containers(scalars).filter(bool))
    outer = draw(st.lists(st.one_of(st.just(inner), scalars), min_size=1, max_size=4))
    body = draw(st.recursive(st.one_of(st.sampled_from([inner, outer]), scalars), containers))
    return [body, inner, inner, [inner, outer, outer]]


CELL = {"coeff_num": -1, "coeff_den": 2, "zeta_num": 3, "zeta_den": 7}
ROW = [CELL, CELL, dict(CELL), {"other": [CELL]}]


@given(shared_payloads())
@example([ROW, ROW, [ROW, CELL], {"x": CELL, "y": ROW}])
@example({"rows": [[CELL] * 3] * 2, "cell": CELL, "deeper": [[[CELL]]]})
@example([[1.5, "%s"]] * 3 + [[[1.5, "%s"]]])
def test_emitter_matches_oracle_on_shared_objects(value):
    assert_same_as_oracle(value)


def test_shared_object_is_encoded_once():
    texts = cli._texts([CELL, [CELL], CELL, dict(CELL)], 1)
    assert texts[0] is texts[2]
    assert texts[3] == texts[0]


@pytest.mark.parametrize(
    "value",
    [
        # equal keys that json.dumps converts differently
        [{1: "int"}, {True: "bool"}, {1.0: "float"}, {np.float64(1.0): "np"}],
        [{0: 0}, {False: 0}, {-0.0: 0}, {None: 0}],
        [{math.nan: 1}, {math.inf: 2}, {-math.inf: 3}, {2**70: 4}],
        {1: [1], 2.5: {"%d": 3}, -7: "x"},
        # keys json.dumps refuses or cannot sort
        {np.int64(1): 0},
        {(1, 2): 0},
        {1: 0, "a": 1},
        [{"a": 1}, {np.int64(1): 0}],
        # values neither encoder takes
        {"a": np.zeros(2)},
        [1, object()],
    ],
)
def test_emitter_keys_and_errors(value):
    assert_same_as_oracle(value)


# --- every command family: stdout is the oracle's dump of its payload ---------


@pytest.fixture(scope="module")
def gram_files(tmp_path_factory):
    """A real Gram (the paper's figure 3) and one with each line doubled up to a phase."""
    folder = tmp_path_factory.mktemp("grams")
    figure3 = fixtures.figure3_gram()
    w = np.exp(2j * np.pi / 5)
    doubled = GramMatrix.from_entries(np.kron(np.array([[1, w], [np.conj(w), 1]]), figure3.entries))
    paths = {}
    for name, gram in (("figure3", figure3), ("doubled", doubled)):
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(gram.to_json_dict()))
    return paths


CLI_CASES = {
    "scheme": ["scheme", "fixture:agl"],
    "scheme-pairs": ["scheme", "fixture:m11", "--action", "pairs"],
    "idempotents-projections": ["idempotents", "fixture:agl", "--projections"],
    "scan-etf": ["scan-etf", "fixture:agl"],
    "scan-etf-no-reduce": ["scan-etf", "fixture:agl", "--no-reduce"],
    "scan-etf-pairs": ["scan-etf", "fixture:m11", "--action", "pairs"],
    "reduce": ["reduce", "{doubled}"],
    "heisenberg-exact": ["heisenberg", "--moduli", "3,3", "--parity", "even", "--verify"],
    "heisenberg-exact-z13": ["heisenberg", "--moduli", "13", "--verify"],
    "heisenberg-float": ["heisenberg", "--moduli", "5", "--float"],
    "harmonic": ["harmonic", "--moduli", "7", "--subset", "1,2,4"],
    "harmonic-2d": ["harmonic", "--moduli", "3,3", "--subset", "[[0,1],[1,0],[1,1],[2,2]]"],
    "symmetry": ["symmetry", "{figure3}"],
    "verify-figures": ["verify-figures"],
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_stdout_matches_oracle(case, gram_files, monkeypatch, capsys, tmp_path):
    argv = [arg.format(**gram_files) for arg in CLI_CASES[case]]
    payloads = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda value: payloads.append(value) or dumps(value))
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert len(payloads) == 1
    assert stdout == oracle(payloads[0]) + "\n"
    out_file = tmp_path / "out.json"
    assert cli.main([*argv, "--output", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == stdout.encode()


def test_exact_heisenberg_dump_stays_within_three_times_its_text():
    # Z_13: 28 561 exact cells with 14 distinct values, shared and encoded once
    tracemalloc.start()
    try:
        args = cli.build_parser().parse_args(["heisenberg", "--moduli", "13", "--verify"])
        text = cli._dumps(cli.cmd_heisenberg(args))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
