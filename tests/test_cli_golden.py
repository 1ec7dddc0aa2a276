"""Byte-exact CLI outputs on fixed inputs.

Every step below runs ``qfhe.cli.main`` in a scratch directory holding the
files of ``golden/cli/inputs`` and the golden circuits. The files a step
writes, its exit code, and its stdout and stderr when not empty must equal
the files under ``golden/cli/expected``. Run this file as a script,
``PYTHONPATH=src python tests/test_cli_golden.py``, to rewrite the expected
files after a deliberate output change.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from qfhe.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "cli" / "inputs"
EXPECTED = GOLDEN / "cli" / "expected"

CIRCUITS = {"bell_rz": 2, "mixed_three_qubit": 3}
KEY_SEEDS = {2: 42, 3: 7}
UNITARIES = ("h", "phase_z", "phase_xz_zx", "cnot", "haar_n2", "non_unitary")


def steps():
    """(name, argv) pairs in run order; later steps read earlier steps' files."""
    for circuit, n in CIRCUITS.items():
        circ = f"{circuit}.json"
        for variant in ("xz", "hy"):
            key = f"key_n{n}_{variant}.json"
            yield f"keygen_n{n}_{variant}", ["keygen", "-n", str(n), "--seed", str(KEY_SEEDS[n]),
                                              "--variant", variant, "-o", key]
        for kind in ("pure", "density"):
            state = f"state_n{n}_{kind}.json"
            tag = f"{circuit}_{kind}"
            for variant in ("xz", "hy"):
                key = f"key_n{n}_{variant}.json"
                cipher = f"{tag}_{variant}.cipher.json"
                evaluated = f"{tag}_{variant}.evaluated.json"
                yield f"encrypt_{tag}_{variant}", ["encrypt", "--key", key, "--in", state, "--out", cipher]
                # the hy key cannot drive circuit rewriting: this step pins exit 2
                yield f"evaluate_{tag}_{variant}", [
                    "evaluate", "--key", key, "--circuit", circ, "--in", cipher,
                    "--out", evaluated, "--emit-rewritten", f"{tag}_{variant}.rewritten.json",
                ]
                source = evaluated if variant == "xz" else cipher
                yield f"decrypt_{tag}_{variant}", ["decrypt", "--key", key, "--in", source,
                                                   "--out", f"{tag}_{variant}.decrypted.json"]
            yield f"simulate_{tag}", ["simulate", "--circuit", circ, "--in", state,
                                      "--out", f"{tag}.simulated.json"]
        yield f"verify_{circuit}", ["verify-security", "--circuit", circ,
                                    "--state", f"state_n{n}_density.json", "--format", "json"]
    # semantic errors: exit 2 with the message on stderr
    yield "encrypt_size_mismatch", ["encrypt", "--key", "key_n2_xz.json", "--in", "state_n3_pure.json",
                                    "--out", "mismatch.json"]
    yield "simulate_size_mismatch", ["simulate", "--circuit", "bell_rz.json", "--in", "state_n3_pure.json",
                                     "--out", "mismatch.json"]
    for name in UNITARIES:
        yield f"classify_{name}", ["classify", "--unitary", f"unitary_{name}.json", "--format", "json"]
    # the human formats, and the commutation report at its default seed and sample count
    yield "verify_bell_rz_human", ["verify-security", "--circuit", "bell_rz.json", "--state", "state_n2_density.json"]
    yield "classify_phase_xz_zx_human", ["classify", "--unitary", "unitary_phase_xz_zx.json"]
    for fmt in ("json", "human"):
        yield f"check_identities_{fmt}", ["check-identities", "--format", fmt]


def run_steps(workdir: Path) -> dict[str, bytes]:
    """Run every step in workdir; return the new files and captured streams by name."""
    for src in [*INPUTS.glob("*.json"), *(GOLDEN / f"{c}.json" for c in CIRCUITS)]:
        shutil.copy(src, workdir / src.name)
    given = {p.name for p in workdir.iterdir()}
    results: dict[str, bytes] = {}
    codes: dict[str, int] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in steps():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = main(argv)
            for suffix, stream in (("stdout", out), ("stderr", err)):
                if stream.getvalue():
                    results[f"{name}.{suffix}"] = stream.getvalue().encode("utf-8")
    finally:
        os.chdir(cwd)
    for path in workdir.iterdir():
        if path.name not in given:
            results[path.name] = path.read_bytes()
    results["exit_codes.json"] = (json.dumps(codes, indent=2) + "\n").encode("utf-8")
    return results


def test_cli_outputs_match_golden_bytes(tmp_path):
    got = run_steps(tmp_path)
    expected = {p.name: p.read_bytes() for p in EXPECTED.iterdir()}
    assert sorted(got) == sorted(expected)
    mismatched = [name for name in sorted(got) if got[name] != expected[name]]
    assert not mismatched, mismatched


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_steps(Path(tmp))
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir(parents=True)
    for file_name, data in outputs.items():
        (EXPECTED / file_name).write_bytes(data)
    print(f"wrote {len(outputs)} files to {EXPECTED}", file=sys.stderr)
