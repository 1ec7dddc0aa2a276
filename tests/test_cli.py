import contextlib
import functools
import io
import json
import math
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfhe import Circuit, DensityState, Gate, PureState, cli, simulate
from qfhe.circuits import canonical_json
from qfhe.cli import CliError, _parse_grid, _state_to_bytes, build_parser, main
from qfhe.linalg import ATOL_EXACT, gate_matrix
from qfhe.rng import RandomSource

from oracles import parse_pairs_loop

BELL = json.dumps(
    {
        "qubits": 2,
        "gates": [
            {"kind": "h", "wire": 0},
            {"kind": "cnot", "control": 0, "target": 1},
        ],
    }
)


def write(path, text):
    path.write_text(text)
    return str(path)


def pure_state_doc(amps):
    return json.dumps(
        {"qubits": int(math.log2(len(amps))), "kind": "pure", "data": [[float(a.real), float(a.imag)] for a in amps]}
    )


def load_state_vec(path):
    doc = json.loads(path.read_text())
    assert doc["kind"] == "pure"
    return np.array([complex(re, im) for re, im in doc["data"]])


def matrix_doc(mat):
    return json.dumps([[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)])


# --- keygen --------------------------------------------------------------

def test_keygen_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
    assert main(["keygen", "-n", "2", "--seed", "42", "-o", str(out1)]) == 0
    assert main(["keygen", "-n", "2", "--seed", "42", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_keygen_rejects_zero_qubits(tmp_path, capsys):
    assert main(["keygen", "-n", "0", "--seed", "1", "-o", str(tmp_path / "k.json")]) == 2
    assert "-n" in capsys.readouterr().err


def test_keygen_rejects_a_key_no_state_can_match_before_allocating(tmp_path, capsys):
    # 10**12 bits cannot be allocated on any machine: a crash here would exit 1, "verification failed"
    out = tmp_path / "k.json"
    assert main(["keygen", "-n", str(10 ** 12), "--seed", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: -n must be at most 64: no state on more qubits can be indexed\n"
    assert not out.exists()
    assert main(["keygen", "-n", "64", "--seed", "1", "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["x_bits"]) == 64


def test_keygen_bit_lengths(tmp_path):
    out = tmp_path / "k.json"
    assert main(["keygen", "-n", "3", "--seed", "5", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["x_bits"]) == 3 and len(doc["z_bits"]) == 3
    assert doc["variant"] == "xz"


def test_bad_flag_exits_2(tmp_path):
    assert main(["keygen", "-n", "2", "-o", str(tmp_path / "k.json")]) == 2  # missing --seed


@pytest.mark.parametrize("argv,code", [
    (["keygen", "-n", "2", "--seed", "42"], 0),
    (["keygen", "-n", "0", "--seed", "42"], 2),
    (["keygen", "-n", "2"], 2),
], ids=["keygen", "zero-qubits", "missing-seed"])
def test_entry_exits_with_the_code_main_returns(tmp_path, monkeypatch, capsys, argv, code):
    # the installed qfhe script's function: sys.argv in, main's code out as the exit status
    out, again = tmp_path / "k.json", tmp_path / "again.json"
    monkeypatch.setattr(sys, "argv", ["qfhe", *argv, "-o", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    entry_err = capsys.readouterr().err
    assert exit_info.value.code == code == main([*argv, "-o", str(again)])
    assert capsys.readouterr().err == entry_err
    assert out.exists() == again.exists() == (code == 0)
    if code == 0:
        assert out.read_bytes() == again.read_bytes()


# --- encrypt / decrypt ---------------------------------------------------

def test_encrypt_decrypt_round_trip(tmp_path):
    key = tmp_path / "key.json"
    assert main(["keygen", "-n", "1", "--seed", "9", "-o", str(key)]) == 0
    state = write(tmp_path / "in.json", pure_state_doc(np.array([0.6, 0.8j])))
    cipher = tmp_path / "c.json"
    plain = tmp_path / "p.json"
    assert main(["encrypt", "--key", str(key), "--in", state, "--out", str(cipher)]) == 0
    assert main(["decrypt", "--key", str(key), "--in", str(cipher), "--out", str(plain)]) == 0
    assert np.max(np.abs(load_state_vec(plain) - [0.6, 0.8j])) <= 1e-12


def test_encrypt_known_key(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "1", "z_bits": "0", "variant": "xz"}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    out = tmp_path / "out.json"
    assert main(["encrypt", "--key", key, "--in", state, "--out", str(out)]) == 0
    assert np.allclose(load_state_vec(out), [0, 1])


def test_encrypt_dimension_mismatch_exits_2(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 2, "x_bits": "10", "z_bits": "01", "variant": "xz"}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    assert main(["encrypt", "--key", key, "--in", state, "--out", str(tmp_path / "o.json")]) == 2


HUGE = "9" * 401  # a JSON integer beyond the float range
HUGER = "9" * 5000  # a JSON integer beyond Python's str-to-int digit limit
DEEP = "[" * 200_000  # nesting past the recursion limit of the JSON decoder


MALFORMED = [
    ("encrypt-key", "{not json"),
    ("encrypt-key", '{"n": true, "x_bits": "1", "z_bits": "0", "variant": "xz"}'),
    ("encrypt-key", '{"n": 1.0, "x_bits": "1", "z_bits": "0", "variant": "xz"}'),
    ("encrypt-key", '{"n": ' + HUGER + ', "x_bits": "1", "z_bits": "0"}'),
    ("encrypt-key", '{"n": 2, "x_bits": ["01", "0"], "z_bits": "00", "variant": "xz"}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[2, 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[' + HUGE + ', 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1000000000000, "kind": "pure", "data": [[1, 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1000000000000, "kind": "density", "data": [[[1, 0]]]}'),
    ("encrypt-state", '{"qubits": 0, "kind": "pure", "data": [[1, 0]]}'),
    ("encrypt-state", '{"qubits": 0, "kind": "density", "data": [[[1, 0]]]}'),
    ("encrypt-state", None),  # missing file
    ("simulate-circuit", '{"qubits": 1, "gates": [{"kind": "rz", "theta": ' + HUGE + ', "wire": 0}]}'),
    ("simulate-circuit", '{"qubits": 1, "gates": [{"kind": "mat2", "entries": [[' + HUGE
     + ', 0], [0, 0], [0, 0], [1, 0]], "wire": 0}]}'),
    ("simulate-circuit", '{"qubits": ' + HUGER + ', "gates": []}'),
    ("simulate-circuit", b'{"qubits": 1, "gates": [], "\xff": 1}'),
    ("classify", '[[[' + HUGE + ', 0], [0, 0]], [[0, 0], [1, 0]]]'),
    ("encrypt-key", DEEP),
    ("encrypt-state", DEEP),
    ("simulate-circuit", DEEP),
    ("classify", DEEP),
]


def _run_on(tmp_path, command, i, text) -> int:
    """Run the command with document text (None: no file) as its input of that kind."""
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "1", "z_bits": "0", "variant": "xz"}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    out = str(tmp_path / "o.json")
    path = tmp_path / f"bad{i}.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    argv = {
        "encrypt-key": ["encrypt", "--key", str(path), "--in", state, "--out", out],
        "encrypt-state": ["encrypt", "--key", key, "--in", str(path), "--out", out],
        "simulate-circuit": ["simulate", "--circuit", str(path), "--in", state, "--out", out],
        "classify": ["classify", "--unitary", str(path)],
    }[command]
    return main(argv)


def test_malformed_inputs_exit_3(tmp_path):
    for i, (command, text) in enumerate(MALFORMED):
        shown = text if text is None or len(text) < 80 else text[:80]
        assert _run_on(tmp_path, command, i, text) == 3, (command, shown)


@pytest.mark.parametrize("command", ["encrypt-key", "simulate-circuit", "classify"])
def test_deep_nesting_gives_one_error_line(tmp_path, capsys, command):
    assert _run_on(tmp_path, command, 0, DEEP) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "invalid JSON" in err


BIG = "1.7e308"  # finite, but its square overflows


@pytest.mark.parametrize("command,text,code", [
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[' + BIG + ', 0], [0, 0]]}', 3),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[0.5, 0], [' + BIG + ', 0]], [[-'
     + BIG + ', 0], [0.5, 0]]]}', 3),
    ("simulate-circuit", '{"qubits": 1, "gates": [{"kind": "mat2", "entries": [[' + BIG
     + ', 0], [0, 0], [0, 0], [1, 0]], "wire": 0}]}', 3),
    ("classify", '[[[' + BIG + ', 0], [0, 0]], [[0, 0], [1, 0]]]', 2),
], ids=["pure", "density", "mat2", "classify"])
def test_entries_whose_square_overflows_give_one_error_line_and_no_warning(tmp_path, capsys, command, text, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_on(tmp_path, command, 0, text) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# --- contract fuzzing ------------------------------------------------------

#: JSON values the loaders must reject or accept without crashing: bools for ints,
#: NaN and Inf, integers past the float range, huge counts, strings and nesting
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3)
    | st.sampled_from([2 ** 63, 10 ** 12, 64, int(HUGE)]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
#: well-formed documents of each input kind, which the fuzzer damages in place
_VALID = {
    "circuit": [
        {"qubits": 1, "gates": [{"kind": "h", "wire": 0}, {"kind": "rz", "theta": 0.5, "wire": 0}]},
        {"qubits": 2, "gates": [{"kind": "cnot", "control": 0, "target": 1},
                                {"kind": "u", "alpha": 0.1, "beta": 0.2, "gamma": 0.3, "delta": 0.4, "wire": 1}]},
        {"qubits": 1, "gates": [{"kind": "mat2", "entries": [[0, 0], [1, 0], [1, 0], [0, 0]], "wire": 0}]},
    ],
    "state": [
        {"qubits": 1, "kind": "pure", "data": [[0.6, 0], [0.8, 0]]},
        {"qubits": 1, "kind": "density", "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    ],
    "key": [
        {"n": 1, "x_bits": "1", "z_bits": "0", "variant": "xz"},
        {"n": 1, "x_bits": "0", "z_bits": "1", "variant": "hy"},
    ],
    "matrix": [
        [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        [[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]],
    ],
}


def _slots(doc, path=()):
    """The path of every value inside the document, containers included, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _slots(value, (*path, key))


@st.composite
def _damaged(draw, doc):
    """The document with up to three of its values replaced by junk, dropped or grown by one junk entry."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc))[1:]
        if not slots:  # every value dropped
            break
        *parent_path, last = draw(st.sampled_from(slots))
        parent = functools.reduce(operator.getitem, parent_path, doc)
        action = draw(st.sampled_from(["replace", "replace", "drop", "grow"]))
        if action == "replace":
            parent[last] = draw(_JUNK)
        elif action == "drop":
            del parent[last]
        elif isinstance(parent[last], list):  # a ragged grid or a longer list
            parent[last].append(draw(_JUNK))
    return doc


def _document_bytes(doc, damage: str) -> bytes:
    text = json.dumps(doc).encode("utf-8")  # NaN and Infinity are written as the reader accepts them
    return {"none": text, "non-utf-8": text[:1] + b"\xff" + text[1:], "deep": ("[" * 200_000).encode()}[damage]


#: the commands that read each input kind, with the other inputs valid one-qubit files
_READERS = {
    "circuit": [["simulate", "--circuit", "{bad}", "--in", "{state}", "--out", "{out}"],
                ["evaluate", "--key", "{key}", "--circuit", "{bad}", "--in", "{state}", "--out", "{out}"],
                ["verify-security", "--circuit", "{bad}", "--state", "{state}"]],
    "state": [["encrypt", "--key", "{key}", "--in", "{bad}", "--out", "{out}"],
              ["simulate", "--circuit", "{circuit}", "--in", "{bad}", "--out", "{out}"],
              ["verify-security", "--circuit", "{circuit}", "--state", "{bad}"]],
    "key": [["decrypt", "--key", "{bad}", "--in", "{state}", "--out", "{out}"],
            ["evaluate", "--key", "{bad}", "--circuit", "{circuit}", "--in", "{state}", "--out", "{out}"]],
    "matrix": [["classify", "--unitary", "{bad}"]],
}


@st.composite
def _cli_cases(draw):
    kind = draw(st.sampled_from(sorted(_VALID)))
    doc = draw(_damaged(draw(st.sampled_from(_VALID[kind]))))
    data = _document_bytes(doc, draw(st.sampled_from(["none"] * 8 + ["non-utf-8", "deep"])))
    return draw(st.sampled_from(_READERS[kind])), data


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    files = {
        "key": json.dumps({"n": 1, "x_bits": "1", "z_bits": "1", "variant": "xz"}),
        "state": pure_state_doc(np.array([0.6, 0.8])),
        "circuit": json.dumps({"qubits": 1, "gates": [{"kind": "h", "wire": 0}]}),
    }
    paths = {name: write(folder / f"{name}.json", text) for name, text in files.items()}
    return folder, {**paths, "bad": str(folder / "bad.json"), "out": str(folder / "out.json")}


@settings(max_examples=300, deadline=None)
@given(case=_cli_cases())
def test_malformed_documents_exit_with_a_code_and_at_most_one_error_line(cli_inputs, case):
    folder, paths = cli_inputs
    template, data = case
    (folder / "bad.json").write_bytes(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main([arg.format(**paths) for arg in template])
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


# --- state file I/O --------------------------------------------------------

def _nested_pairs(values: np.ndarray) -> list:
    if values.ndim > 1:
        return [_nested_pairs(row) for row in values]
    return [[float(v.real) + 0.0, float(v.imag) + 0.0] for v in values]  # a zero part of either sign is 0.0


def _canonical_state(state) -> bytes:
    """The writer's oracle: canonical_json of the document built from nested lists, with no -0.0."""
    kind, values = ("pure", state.amplitudes) if isinstance(state, PureState) else ("density", state.matrix)
    return canonical_json({"qubits": state.n_qubits, "kind": kind, "data": _nested_pairs(values)})


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["pure", "density"])
def test_state_writer_is_canonical_json_on_random_states(n, kind):
    rng = RandomSource(100 + n)
    state = rng.pure_state(n) if kind == "pure" else rng.density_state(n)
    assert _state_to_bytes(state) == _canonical_state(state)


ODD = 0.1 + 0.2  # 0.30000000000000004: the shortest repr needs all 17 digits

CRAFTED_STATES = {
    "signed_zeros": PureState(1, [complex(1.0, -0.0), complex(-0.0, -0.0)]),
    "tiny_parts": PureState(2, [complex(ODD, -0.0), complex(-0.0, 5e-324), complex(1e-300, 0.0),
                                complex(math.sqrt(1 - ODD ** 2), 0.0)]),
    "density_whole": DensityState(1, [[complex(1.0, 0.0), complex(1e-300, -0.0)],
                                      [complex(1e-300, 0.0), complex(0.0, -0.0)]]),
    "density_odd": DensityState(1, [[0.5, complex(ODD, 5e-324)], [complex(ODD, -5e-324), 0.5]]),
}


@pytest.mark.parametrize("name", CRAFTED_STATES)
def test_state_writer_is_canonical_json_on_crafted_entries(name):
    state = CRAFTED_STATES[name]
    assert _state_to_bytes(state) == _canonical_state(state)


def test_a_zero_part_is_written_without_its_sign(tmp_path):
    # the Pauli frame of z leaves -0.0 in the real part of the |1> amplitude; the file says 0.0
    circuit = Circuit(1, (Gate.named("z", 0),))
    assert np.signbit(simulate(circuit, PureState.basis(1)).amplitudes[1].real)
    circ = write(tmp_path / "z.json", json.dumps({"qubits": 1, "gates": [{"kind": "z", "wire": 0}]}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    out = tmp_path / "o.json"
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(out)]) == 0
    assert out.read_bytes() == canonical_json({"qubits": 1, "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]]})


def _read_with(reader, data, shape):
    """The array a grid reader returns, or the (code, message) of the CliError it raises."""
    try:
        return reader(data, "grid.json", shape)
    except CliError as exc:
        return exc.code, str(exc)


def _assert_same_reading(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


MAX_INT = str(int(sys.float_info.max))
PAST_MAX_INT = str(int(sys.float_info.max) + 1)  # rounds down to the largest float
#: JSON texts of one value: each goes in as an entry, and as an entry's real part and its imaginary
#: part next to an int 0 and next to a float 0.0 (with no int present, the ints' exact check does not run)
VALUES = ["true", '"1.5"', "null", "NaN", "Infinity", "-Infinity", "1e400", "-1e400", MAX_INT, "-" + MAX_INT,
          PAST_MAX_INT, "-" + PAST_MAX_INT, HUGE, "0", "-0.0", "5e-324", "1.7976931348623157e308",
          "[1, 0]", "{}", '"ab"']
#: JSON texts of one whole entry
ENTRIES = [pair for v in VALUES for z in ("0", "0.0") for pair in (f"[{v}, {z}]", f"[{z}, {v}]")] + VALUES + [
    "[]", "[0.5]", "[0.5, 0, 0]", "[[0.5, 0]]", '{"re": 0.5, "im": 0}', "[0.5, -0.0]", "[-0.0, -0.0]"]
GRID_SHAPES = {"pure": (4, 2), "density": (2, 2, 2), "classify": (4, 4, 2)}


def _grid_text(shape, entries: dict) -> str:
    """JSON text of a grid of [0.5, 0.25] pairs with the entries at the given flat indices replaced."""
    count = math.prod(shape[:-1])
    texts = [entries.get(i, "[0.5, 0.25]") for i in range(count)]
    if len(shape) == 2:
        return "[" + ", ".join(texts) + "]"
    width = shape[1]
    return "[" + ", ".join("[" + ", ".join(texts[r:r + width]) + "]" for r in range(0, count, width)) + "]"


@pytest.mark.parametrize("grid", GRID_SHAPES)
def test_grid_reader_matches_the_per_entry_loop(grid):
    shape = GRID_SHAPES[grid]
    last = math.prod(shape[:-1]) - 1
    cases = [{}]
    cases += [{at: entry} for entry in ENTRIES for at in (0, last)]
    cases += [{0: "[0.5]", last: "[0.5, 0, 0]"}, {i: "[0.5, 0, 0]" for i in range(last + 1)},
              {0: "[" + PAST_MAX_INT + ", 0]", last: "[NaN, 0]"}]
    for entries in cases:
        data = json.loads(_grid_text(shape, entries))
        got = _read_with(_parse_grid, data, shape)
        want = _read_with(parse_pairs_loop, data, shape)
        _assert_same_reading(got, want)
        if PAST_MAX_INT in "".join(entries.values()):
            assert got == (3, "grid.json: each entry must be a finite [re, im] pair")


GRID_DOCUMENTS = [(command, text) for command, text in MALFORMED if command in ("encrypt-state", "classify")] + [
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[-0.0, -0.0], [1.0, -0.0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[' + PAST_MAX_INT + ', 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[' + MAX_INT + ', 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[1, 0], [0, 0, 0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[1, 0], 0]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0], [0, -0.0]]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0]]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0], [true, 0]]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0], [0]]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "density", "data": [[[1, 0], [0, 0]], [[0, 0], [1e400, 0]]]}'),
    ("classify", "[[[0, 0], [1, 0]], [[1, 0], [0, -0.0]]]"),
    ("classify", "[[[0, 0], [1, 0]], [[1, 0]]]"),
    ("classify", "[[[0, 0], [1, 0]], [[1, 0], [0, " + PAST_MAX_INT + "]]]"),
    ("classify", "[[[0, 0], [1, 0]], [[1, 0], [0, Infinity]]]"),
    ("classify", '[[[0, 0], [1, 0]], [[1, 0], ["0", 0]]]'),
    ("classify", "[[[0, 0], [1, 0]], [[1, 0], 0]]"),
]


def test_state_and_matrix_files_read_as_with_the_per_entry_loop(tmp_path, capsys, monkeypatch):
    """Every exit code, output and message is the same with the per-entry loop in place of the grid reader."""
    out = tmp_path / "o.json"

    def run(i, command, text):
        out.unlink(missing_ok=True)
        code = _run_on(tmp_path, command, i, text)
        return code, capsys.readouterr(), out.read_bytes() if out.exists() else None

    for i, (command, text) in enumerate(GRID_DOCUMENTS):
        got = run(i, command, text)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_grid", parse_pairs_loop)
            want = run(i, command, text)
        assert got == want, (command, text if text is None or len(text) < 80 else text[:80])
        if text is not None and PAST_MAX_INT in text:
            assert got[0] == 3 and got[1].err.endswith("each entry must be a finite [re, im] pair\n")


# --- one parser per process ----------------------------------------------

def test_main_calls_in_one_process_share_a_parser_but_not_flags(tmp_path, capsys):
    assert build_parser() is build_parser()
    key = write(tmp_path / "key.json", json.dumps({"n": 2, "x_bits": "10", "z_bits": "11", "variant": "xz"}))
    circ = write(tmp_path / "bell.json", BELL)
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    out, rewritten = tmp_path / "o.json", tmp_path / "rw.json"
    argv = ["evaluate", "--key", key, "--circuit", circ, "--in", state, "--out", str(out)]
    assert main([*argv, "--emit-rewritten", str(rewritten)]) == 0
    evaluated = out.read_bytes()
    rewritten.unlink()
    out.unlink()
    assert main(argv) == 0
    assert out.read_bytes() == evaluated and not rewritten.exists()

    assert main([*argv, "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    out.unlink()
    assert main(argv) == 0
    assert out.read_bytes() == evaluated and capsys.readouterr() == ("", "")

    unitary = write(tmp_path / "u.json", matrix_doc(gate_matrix("x")))
    assert main(["classify", "--unitary", unitary, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["key_independent"] is True
    assert main(["classify", "--unitary", unitary]) == 0
    assert capsys.readouterr().out.startswith("key-independent: a=1 b=0")


# --- evaluate / simulate -------------------------------------------------

def test_pipeline_matches_simulation(tmp_path):
    key = tmp_path / "key.json"
    circ = write(tmp_path / "bell.json", BELL)
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    assert main(["keygen", "-n", "2", "--seed", "11", "-o", str(key)]) == 0
    cipher, evaluated, plain, reference = (tmp_path / f"{s}.json" for s in ("c", "e", "p", "r"))
    assert main(["encrypt", "--key", str(key), "--in", state, "--out", str(cipher)]) == 0
    assert main(["evaluate", "--key", str(key), "--circuit", circ, "--in", str(cipher), "--out", str(evaluated)]) == 0
    assert main(["decrypt", "--key", str(key), "--in", str(evaluated), "--out", str(plain)]) == 0
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(reference)]) == 0
    got, want = load_state_vec(plain), load_state_vec(reference)
    # compare as density matrices: global phase is not observable
    assert np.max(np.abs(np.outer(got, got.conj()) - np.outer(want, want.conj()))) <= 1e-9


def test_emit_rewritten_three_gates_per_cnot(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 2, "x_bits": "11", "z_bits": "11", "variant": "xz"}))
    circ = write(
        tmp_path / "c.json",
        json.dumps({"qubits": 2, "gates": [{"kind": "cnot", "control": 0, "target": 1}]}),
    )
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    rewritten = tmp_path / "rw.json"
    assert main([
        "evaluate", "--key", key, "--circuit", circ, "--in", state,
        "--out", str(tmp_path / "o.json"), "--emit-rewritten", str(rewritten),
    ]) == 0
    doc = json.loads(rewritten.read_text())
    assert [g["kind"] for g in doc["gates"]] == ["z", "x", "cnot"]


def test_evaluate_empty_circuit_is_identity(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "0", "z_bits": "1", "variant": "xz"}))
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": []}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([0.6, 0.8])))
    out = tmp_path / "o.json"
    assert main(["evaluate", "--key", key, "--circuit", circ, "--in", state, "--out", str(out)]) == 0
    assert np.allclose(load_state_vec(out), [0.6, 0.8])


def test_evaluate_with_an_hy_key_exits_2_on_an_empty_circuit(tmp_path, capsys):
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "0", "z_bits": "1", "variant": "hy"}))
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": []}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([0.6, 0.8])))
    out = tmp_path / "o.json"
    assert main(["evaluate", "--key", key, "--circuit", circ, "--in", state, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: circuit rewriting requires the xz key variant, got 'hy'\n"
    assert not out.exists()


def test_simulate_bell(tmp_path):
    circ = write(tmp_path / "bell.json", BELL)
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    out = tmp_path / "o.json"
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(out)]) == 0
    assert np.max(np.abs(load_state_vec(out) - [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])) <= 1e-12


def test_simulate_wire_out_of_range_exits_3(tmp_path):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": [{"kind": "x", "wire": 3}]}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(tmp_path / "o.json")]) == 3


# --- verify-security -----------------------------------------------------

def test_verify_security_pass(tmp_path, capsys):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": []}))
    state = write(tmp_path / "s.json", pure_state_doc(np.array([1.0, 0.0])))
    assert main(["verify-security", "--circuit", circ, "--state", state]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "  worst decrypt distance   " in out


def test_verify_security_json_format(tmp_path, capsys):
    circ = write(tmp_path / "c.json", BELL)
    state = write(tmp_path / "s.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    assert main(["verify-security", "--circuit", circ, "--state", state, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["worst_encrypt_distance"] <= 1e-10
    assert doc["worst_decrypt_distance"] <= 1e-10


def test_verify_security_zero_tol_fails(tmp_path):
    circ = write(
        tmp_path / "c.json",
        json.dumps({"qubits": 1, "gates": [{"kind": "ry", "theta": 0.3, "wire": 0}]}),
    )
    state = write(tmp_path / "s.json", pure_state_doc(np.array([0.6, 0.8j])))
    assert main(["verify-security", "--circuit", circ, "--state", state, "--tol", "0"]) == 1


def test_verify_security_writes_a_negative_zero_tol_as_zero(tmp_path, capsys):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": []}))
    state = write(tmp_path / "s.json", pure_state_doc(np.array([1.0, 0.0])))
    code = main(["verify-security", "--circuit", circ, "--state", state, "--tol", "-0", "--format", "json"])
    out = capsys.readouterr().out
    assert '"tolerance": 0.0,' in out and "-0.0" not in out
    assert code == (0 if json.loads(out)["pass"] else 1)


@pytest.mark.parametrize("tol", ["1e-9", "0"])
def test_verify_security_takes_a_pure_state_as_is_with_its_density_verdict(tmp_path, capsys, monkeypatch, tol):
    # the pure file reaches the library as a PureState; its report, exit code included,
    # is the density file's within ATOL_EXACT
    seen = []
    verify = cli.analysis.verify_security
    monkeypatch.setattr(cli.analysis, "verify_security", lambda c, state, t: seen.append(type(state)) or verify(c, state, t))
    rng = RandomSource(47)
    for n in (1, 2, 3):
        psi = rng.pure_state(n)
        circ = write(tmp_path / f"c{n}.json", cli.circuits.serialize_circuit(rng.circuit(n, 12)).decode("utf-8"))
        reports = []
        for name, state in (("pure", psi), ("density", psi.to_density())):
            path = tmp_path / f"{name}{n}.json"
            path.write_bytes(_state_to_bytes(state))
            code = main(["verify-security", "--circuit", circ, "--state", str(path), "--tol", tol, "--format", "json"])
            reports.append((code, json.loads(capsys.readouterr().out)))
        (code, got), (want_code, want) = reports
        assert code == want_code == (0 if got["pass"] else 1) and got["pass"] == want["pass"]
        for name in ("worst_encrypt_distance", "worst_evaluate_distance", "worst_decrypt_distance"):
            assert abs(got[name] - want[name]) <= ATOL_EXACT
    assert seen == [PureState, DensityState] * 3


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_security_invalid_tol_exits_2(tmp_path, capsys, tol):
    circ = write(tmp_path / "c.json", BELL)
    state = write(tmp_path / "s.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    assert main(["verify-security", "--circuit", circ, "--state", state, "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tolerance must be a finite number >= 0") and "Traceback" not in err


def test_verify_security_guard_exits_2(tmp_path):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 4, "gates": []}))
    amps = np.zeros(16)
    amps[0] = 1.0
    state = write(tmp_path / "s.json", pure_state_doc(amps))
    assert main(["verify-security", "--circuit", circ, "--state", state]) == 2


# --- classify ------------------------------------------------------------

def test_classify_x(tmp_path, capsys):
    path = write(tmp_path / "u.json", matrix_doc(gate_matrix("x")))
    assert main(["classify", "--unitary", path]) == 0
    out = capsys.readouterr().out
    assert "key-independent: a=1 b=0" in out


def test_classify_h(tmp_path, capsys):
    path = write(tmp_path / "u.json", matrix_doc(gate_matrix("h")))
    assert main(["classify", "--unitary", path]) == 0
    assert "not key-independent" in capsys.readouterr().out


def test_classify_3x3_exits_3(tmp_path):
    path = write(tmp_path / "u.json", matrix_doc(np.eye(3)))
    assert main(["classify", "--unitary", path]) == 3


def test_classify_non_unitary_exits_2(tmp_path):
    path = write(tmp_path / "u.json", matrix_doc(np.diag([1.0, 2.0])))
    assert main(["classify", "--unitary", path]) == 2


def test_classify_tolerance_between_the_criteria_exits_2(tmp_path, capsys):
    eps = 1e-3
    u = math.cos(eps) * np.eye(2) + 1j * math.sin(eps) * gate_matrix("x")
    path = write(tmp_path / "u.json", matrix_doc(u))
    assert main(["classify", "--unitary", path, "--tol", "1.5e-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance 0.0015 cannot separate") and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_classify_invalid_tol_exits_2(tmp_path, capsys, tol):
    path = write(tmp_path / "u.json", matrix_doc(gate_matrix("z")))
    assert main(["classify", "--unitary", path, "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tolerance must be a finite number >= 0") and "Traceback" not in err


def test_classify_json_format(tmp_path, capsys):
    path = write(tmp_path / "u.json", matrix_doc(np.exp(0.25j) * gate_matrix("z")))
    assert main(["classify", "--unitary", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["key_independent"] is True
    assert doc["witness"]["a"] == "0" and doc["witness"]["b"] == "1"
    assert doc["witness"]["theta"] == pytest.approx(0.25, abs=1e-9)


# --- check-identities ----------------------------------------------------

def test_check_identities_table(capsys):
    assert main(["check-identities"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11  # 10 identities + result line
    assert lines[-1].startswith("result: PASS")


def test_check_identities_deterministic(capsys):
    assert main(["check-identities", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["check-identities", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_check_identities_rejects_zero_samples(capsys):
    # the check reads a fixed grid of two angles: it takes no sample count, zero or any other, and no seed
    for argv in (["--samples", "0"], ["--samples", "100"], ["--seed", "7"]):
        assert main(["check-identities", *argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
