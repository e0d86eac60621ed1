"""sha256 digests over seeded sessions on both qubit schemes.

`SESSIONS_SHA256` covers each `run_session` output matrix, its
plain-evaluation reference and its transcript, so any change to a state
kernel, a key draw or a message shows up here bit for bit.
`TRANSCRIPTS_SHA256` covers the transcripts alone: the keys drawn and
every message, which a change of arithmetic that moves only the last bits
of the matrices leaves as they are."""
import hashlib

import numpy as np

from qhelab import paulis, protocol

PAULI_CIRCUIT = "H 0\nCNOT 0 1\nT 1\nH 2\nCNOT 2 3\nT 3\nCNOT 1 2\n"
PERM_CIRCUIT = "H 0\nT 0\nS 0\nT 0\nH 0\n"

# (scheme, circuit, plaintexts, seeds, m)
RUNS = [("pauli", PAULI_CIRCUIT, ["0000", "1010", "+0-1"], range(50), 1),
        ("perm", PERM_CIRCUIT, list("0+1-"), range(100), 1)]

SESSIONS_SHA256 = "aeba3dd633820ce455754ae656d79aa46a7160783858ad4fd0a53541c8b52654"
TRANSCRIPTS_SHA256 = "71f4392fb030231ac51b0bf26bcb50a89d200bfaf0fe3efa88c50f9cfb5898fe"


def session_fingerprint(matrices: bool = True) -> str:
    h = hashlib.sha256()
    for scheme, text, plaintexts, seeds, m in RUNS:
        circuit = paulis.parse_circuit(text)
        for plain in plaintexts:
            for seed in seeds:
                out, ref, transcript = protocol.run_session(
                    scheme, plain, circuit, np.random.default_rng(seed), m=m)
                if matrices:
                    h.update(out.mat.tobytes())
                    h.update(ref.mat.tobytes())
                h.update(transcript.to_jsonl().encode())
    return h.hexdigest()


def test_seeded_sessions_bitwise():
    assert session_fingerprint() == SESSIONS_SHA256


def test_seeded_transcripts_bitwise():
    assert session_fingerprint(matrices=False) == TRANSCRIPTS_SHA256
