"""One sha256 over seeded sessions on both qubit schemes.

The hash covers each `run_session` output matrix, its plain-evaluation
reference and its transcript, so any change to a dense kernel, a key draw
or a message shows up here bit for bit."""
import hashlib

import numpy as np

from qhelab import paulis, protocol

PAULI_CIRCUIT = "H 0\nCNOT 0 1\nT 1\nH 2\nCNOT 2 3\nT 3\nCNOT 1 2\n"
PERM_CIRCUIT = "H 0\nT 0\nS 0\nT 0\nH 0\n"

# (scheme, circuit, plaintexts, seeds, m)
RUNS = [("pauli", PAULI_CIRCUIT, ["0000", "1010", "+0-1"], range(50), 1),
        ("perm", PERM_CIRCUIT, list("0+1-"), range(100), 1)]

SESSIONS_SHA256 = "8e6f3c8f8aa3b9eb2951cec0b0af8731fc9b83cdded479805fd95b81bee397f0"


def session_fingerprint() -> str:
    h = hashlib.sha256()
    for scheme, text, plaintexts, seeds, m in RUNS:
        circuit = paulis.parse_circuit(text)
        for plain in plaintexts:
            for seed in seeds:
                out, ref, transcript = protocol.run_session(
                    scheme, plain, circuit, np.random.default_rng(seed), m=m)
                h.update(out.mat.tobytes())
                h.update(ref.mat.tobytes())
                h.update(transcript.to_jsonl().encode())
    return h.hexdigest()


def test_seeded_sessions_bitwise():
    assert session_fingerprint() == SESSIONS_SHA256
