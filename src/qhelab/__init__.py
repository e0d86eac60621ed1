"""qhelab: a simulation laboratory for encrypted, error-corrected
quantum computation.

Layers, bottom up:

- paulis / states: exact Pauli-Clifford algebra and the three state
  backends (stabilizer tableau, state vector capped at 12 qubits, dense
  oracle capped at 6);
- qec: stabilizer codes, syndrome extraction, lookup decoding, lifts;
- schemes: the abstract encryption-scheme algebra (ciphertext averages,
  the trace-distance security metric, decryption derivation, composition);
- paulikey / permkey: the two concrete qubit schemes, with magic-state
  and interactive T gates;
- cv: displacement-key transport for Gaussian circuits and GKP shifts;
- resources: the analytic fault-tolerance overhead calculator;
- protocol: the two-party session runtime and transcript auditing;
- cli: the command-line frontend (`qhelab --help`).
"""

from .paulis import (Circuit, CliffordOp, Gate, PauliString, parse_circuit,
                     random_clifford)
from .states import (DensityMatrix, MeasurementRecord, StabilizerState,
                     StateVector, trace_distance)

__all__ = [
    "Circuit", "CliffordOp", "DensityMatrix", "Gate", "MeasurementRecord",
    "PauliString", "StabilizerState", "StateVector", "parse_circuit",
    "random_clifford", "trace_distance",
]

__version__ = "0.1.0"
