"""Command-line laboratory frontend.

Subcommands: roundtrip, security, qec-demo, t-gate, cv-check, resources,
audit.  Every randomized subcommand takes a mandatory seed (flag or the
QHELAB_SEED environment variable) and is byte-deterministic under it.
Exit codes: 0 success, 1 assertion/acceptance failure, 2 usage or parse
errors.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import cv, qec, resources
from .paulis import Circuit, PauliAlgebraError, parse_circuit
from .paulikey import PauliKey, pauli_scheme, zkey_scheme
from .permkey import (PermKey, perm_scheme, security_bound,
                      spread_basis_input, build_t_register,
                      t_gate_deterministic, t_gate_probabilistic)
from .protocol import (ProtocolViolation, audit_transcript, canary_session,
                       run_session)
from .schemes import SchemeError, security_delta
from .states import BackendError, DensityMatrix, trace_distance

USAGE_ERROR = 2
CHECK_FAILED = 1


def _rng(args) -> np.random.Generator:
    if args.seed is None:
        env = os.environ.get("QHELAB_SEED")
        if env is None:
            sys.stderr.write("error: a seed is required (--seed or QHELAB_SEED)\n")
            raise SystemExit(USAGE_ERROR)
        args.seed = int(env)
    return np.random.default_rng(args.seed)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# -- roundtrip ----------------------------------------------------------------

def cmd_roundtrip(args) -> int:
    rng = _rng(args)
    circuit = parse_circuit(_read(args.circuit))
    dist_tol = 1e-8
    out, ref, transcript = run_session(
        args.scheme, args.input, circuit, rng, m=args.m)
    dist = trace_distance(out, ref)
    report = {"scheme": args.scheme, "input": args.input,
              "trace_distance": dist, "seed": args.seed,
              "messages": len(transcript.messages),
              "pass": dist < dist_tol}
    _emit(args, json.dumps(report, indent=2) if args.format == "json"
          else f"trace distance {dist:.3e} ({'PASS' if report['pass'] else 'FAIL'})")
    return 0 if report["pass"] else CHECK_FAILED


# -- security ------------------------------------------------------------------

def _scheme_inputs(args):
    specs = args.inputs.split(",")
    if args.scheme == "perm":
        states = []
        for s in specs:
            if s not in ("0", "1"):
                raise SchemeError("perm sweeps take computational-basis inputs")
            states.append(spread_basis_input(args.m, int(s)))
        return perm_scheme(args.m), states
    n = len(specs[0])
    if any(len(s) != n for s in specs):
        raise SchemeError("inputs must share one register size")
    states = [DensityMatrix.product(s) for s in specs]
    if args.scheme == "pauli":
        return pauli_scheme(n), states
    if args.scheme == "zkey":
        return zkey_scheme(n), states
    raise SchemeError(f"unknown scheme {args.scheme!r}")


def cmd_security(args) -> int:
    rng = _rng(args)
    scheme, states = _scheme_inputs(args)
    report = security_delta(scheme, states, rng=rng)
    blob = json.loads(report.to_json())
    if args.scheme == "perm":
        blob["security_bound"] = security_bound(args.r, args.m)
        blob["bound_respected"] = report.delta <= blob["security_bound"] + 1e-12
    _emit(args, json.dumps(blob, indent=2))
    if args.scheme == "perm" and not blob["bound_respected"]:
        return CHECK_FAILED
    return 0


# -- qec demo ------------------------------------------------------------------

def _injected_error(spec: str, n: int) -> tuple[str, int] | None:
    """Parse --error: 'none', or X, Y or Z followed by a qubit in range(n)."""
    if spec.lower() == "none":
        return None
    m = re.fullmatch(r"([XYZ])([0-9]+)", spec, re.IGNORECASE)
    if not m or int(m[2]) >= n:
        raise ValueError(f"bad --error {spec!r}: want none or X, Y or Z "
                         f"followed by a qubit 0..{n - 1}")
    return m[1].upper(), int(m[2])


def cmd_qec_demo(args) -> int:
    rng = _rng(args)
    code = qec.BUILTIN_CODES[args.code]()
    error = _injected_error(args.error, code.n)
    from .paulikey import compose_with_stabilizer_code
    from .paulis import PauliString
    from .qec import extract_syndrome, lookup_decode
    from .states import StabilizerState

    scheme = compose_with_stabilizer_code(code)
    key = PauliKey.random(code.k, rng)
    lines = [f"code {code.name}: [[{code.n},{code.k},{code.d}]]",
             f"data key: {key.label()}"]
    padded = args.plaintext + "0" * (code.n - code.k)
    state = scheme.encrypt(key, StabilizerState.product(padded))
    if error:
        letter, qubit = error
        err = PauliString.single(code.n, qubit, letter)
        state = state.apply_pauli(err)
        lines.append(f"injected error: {letter} on qubit {qubit}")
    state, syndrome, _ = extract_syndrome(state, code, len(code.generators), rng)
    lines.append(f"syndrome: {syndrome.bits}")
    try:
        correction = lookup_decode(syndrome, code)
    except qec.UncorrectableSyndrome as exc:
        _emit(args, "\n".join(lines + [f"uncorrectable: {exc}"]))
        return CHECK_FAILED
    lines.append(f"correction: {correction.label()}")
    state = state.apply_pauli(correction)
    # scheme decryption inverts the encoder and then the data key
    decoded = scheme.decrypt(key, state)
    expect = StabilizerState.product(padded)
    ok = all(decoded.expectation(g) == 1 for g in expect.generators)
    lines.append("recovered: " + ("yes" if ok else "NO"))
    _emit(args, "\n".join(lines))
    return 0 if ok else CHECK_FAILED


# -- t-gate --------------------------------------------------------------------

def cmd_t_gate(args) -> int:
    if args.trials < 1:
        sys.stderr.write("error: t-gate needs --trials >= 1\n")
        return USAGE_ERROR
    rng = _rng(args)
    transcripts = []
    if args.mode == "prob":
        succ = 0
        for _ in range(args.trials):
            key = PermKey.sample(args.m, rng)
            reg, client, budget = build_t_register(args.plaintext, args.m, 1,
                                                   key, rng)
            ok, bits, msgs = t_gate_probabilistic(
                reg, 0, budget.bundles[0]["magic"], client, rng)
            succ += int(ok)
        rate = succ / args.trials
        _emit(args, json.dumps({"mode": "prob", "trials": args.trials,
                                "success_rate": rate}))
        return 0 if 0.4 <= rate <= 0.6 else CHECK_FAILED
    worst = 0.0
    for _ in range(args.trials):
        key = PermKey.sample(args.m, rng)
        reg, client, budget = build_t_register(args.plaintext, args.m, 1,
                                               key, rng)
        msgs = t_gate_deterministic(reg, 0, budget, client, rng)
        transcripts.append([m_ for m_ in msgs])
        reg.decrypt(key)
        got = reg.data_qubit_density(0)
        ref = DensityMatrix.product(args.plaintext).apply_gate("T", (0,))
        worst = max(worst, trace_distance(got, ref.mat))
    blob = {"mode": "det", "trials": args.trials, "worst_distance": worst,
            "transcript_sample": transcripts[0] if transcripts else []}
    _emit(args, json.dumps(blob, indent=2))
    return 0 if worst < 1e-10 else CHECK_FAILED


# -- cv-check ------------------------------------------------------------------

def cmd_cv_check(args) -> int:
    if args.trials < 1:
        sys.stderr.write("error: cv-check needs --trials >= 1\n")
        return USAGE_ERROR
    rng = _rng(args)
    worst = 0.0
    for _ in range(args.trials):
        layers = []
        for _ in range(6):
            kind = rng.choice(["BS", "PS", "SMS"])
            if kind == "BS":
                i, j = rng.choice(3, 2, replace=False)
                layers.append(("BS", int(i), int(j), float(rng.uniform(0, np.pi))))
            elif kind == "PS":
                layers.append(("PS", int(rng.integers(3)),
                               float(rng.uniform(0, 2 * np.pi))))
            else:
                layers.append(("SMS", int(rng.integers(3)),
                               float(rng.uniform(-1, 1)),
                               float(rng.uniform(0, 2 * np.pi))))
        key = cv.DisplacementVec(rng.normal(size=3) + 1j * rng.normal(size=3))
        moved = cv.transport_key_gaussian(layers, key, 3)
        stotal = cv.circuit_symplectic(layers, 3)
        dev = float(np.max(np.abs(stotal.apply_quad(key.quad_vector())
                                  - moved.quad_vector())))
        worst = max(worst, dev)
    gamma = cv.transport_key_squeezer(np.log(2.0), 0.0, 1.0)
    dx = cv.gkp_logical_to_displacement("X", 2, np.sqrt(np.pi))
    dz = cv.gkp_logical_to_displacement("Z", 2, np.sqrt(np.pi))
    phase = cv.commutation_phase(dz, dx)
    blob = {"trials": args.trials, "worst_commutation_deviation": worst,
            "squeezer_gamma": [gamma.real, gamma.imag],
            "gkp_commutation_phase": [phase.real, phase.imag]}
    _emit(args, json.dumps(blob, indent=2))
    ok = (worst < 1e-10 and abs(gamma - 2.0) < 1e-12
          and abs(phase - np.exp(1j * np.pi)) < 1e-10)
    return 0 if ok else CHECK_FAILED


# -- resources -----------------------------------------------------------------

def cmd_resources(args) -> int:
    try:
        if args.fig5:
            params = resources.headline_preset_params(k=args.k, depth=args.depth)
        else:
            params = resources.ResourceParams(
                p0=args.p0, p_threshold=args.pthr, a_coeff=args.aomega,
                p_target=args.ptarget, depth=args.depth, k=args.k)
        grid = [int(float(tok)) for tok in args.ntot.split(",")]
        rows = resources.tradeoff_sweep(params, grid, r_fixed=args.r)
    except resources.ResourceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    if args.format == "csv":
        _emit(args, resources.sweep_to_csv(rows))
    else:
        _emit(args, resources.sweep_to_json(rows))
    return 0


# -- audit ---------------------------------------------------------------------

def cmd_audit(args) -> int:
    if not args.config and not args.scheme:
        sys.stderr.write("error: audit needs --scheme or --config\n")
        return USAGE_ERROR
    if args.config:
        from .protocol import load_session_config
        blob = load_session_config(args.config)
        args.scheme = blob["scheme"]
        args.circuit = blob["circuit"]
        args.seed = blob["seed"]
        args.runs = blob["runs"]
        args.plaintexts = ",".join(blob["plaintexts"])
        args.m = blob["m"]
    _ = _rng(args)
    circuit = (parse_circuit(_read(args.circuit)) if args.circuit
               else Circuit(1, ()))
    plaintexts = args.plaintexts.split(",")

    if args.scheme == "canary":
        factory = lambda p, rng: canary_session(p, circuit, rng)[2]
    else:
        factory = lambda p, rng: run_session(args.scheme, p, circuit, rng,
                                             m=args.m)[2]
    report = audit_transcript(factory, plaintexts, args.runs,
                              base_seed=args.seed)
    leaking = report["max_tv"] > 0.05
    report["leak_detected"] = leaking
    _emit(args, json.dumps(report, indent=2))
    if args.expect_leak:
        return 0 if leaking else CHECK_FAILED
    return 0 if not leaking else CHECK_FAILED


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qhelab",
        description="encrypted-computation laboratory: round trips, security "
                    "sweeps, QEC demos, resource tables")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="rng seed (or set QHELAB_SEED)")
        p.add_argument("--output", help="write the report to this path")

    p = sub.add_parser("roundtrip", help="encrypt/evaluate/decrypt and compare")
    p.add_argument("scheme", choices=["pauli", "perm"])
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("-i", "--input", required=True,
                   help="plaintext characters from 01+-im")
    p.add_argument("-m", type=int, default=1, help="columns parameter (perm)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("security", help="exact or sampled Delta sweep")
    p.add_argument("scheme", choices=["pauli", "perm", "zkey"])
    p.add_argument("--inputs", required=True,
                   help="comma-separated plaintexts, e.g. 0,1 or 00,++")
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-r", type=int, default=0,
                   help="consumed-ancilla count for the reported bound")
    common(p)
    p.set_defaults(func=cmd_security)

    p = sub.add_parser("qec-demo", help="error-injection walkthrough")
    p.add_argument("--code", choices=sorted(qec.BUILTIN_CODES), required=True)
    p.add_argument("--plaintext", default="0")
    p.add_argument("--error", default="none", help="e.g. X1, Z0, none")
    common(p)
    p.set_defaults(func=cmd_qec_demo)

    p = sub.add_parser("t-gate", help="probabilistic/deterministic T demo")
    p.add_argument("--mode", choices=["prob", "det"], required=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--plaintext", default="+")
    common(p)
    p.set_defaults(func=cmd_t_gate)

    p = sub.add_parser("cv-check", help="symplectic identity suite")
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_cv_check)

    p = sub.add_parser("resources", help="fault-tolerance tradeoff table")
    p.add_argument("--fig5", action="store_true",
                   help="use the headline parameter preset")
    p.add_argument("--p0", type=float, default=1e-6)
    p.add_argument("--pthr", type=float, default=1e-3)
    p.add_argument("--aomega", type=float, default=10.0)
    p.add_argument("--ptarget", type=float, default=1e-30)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None,
                   help="fixed r for the budget m-rule (when no --k)")
    p.add_argument("--ntot", required=True, help="comma list, e.g. 1e6,1e8")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("audit", help="transcript leakage audit")
    p.add_argument("--scheme", choices=["pauli", "perm", "canary"])
    p.add_argument("--plaintexts", default="0,1")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("--circuit", default=None)
    p.add_argument("--config", default=None,
                   help="session config JSON (scheme, circuit, seed, runs)")
    p.add_argument("--expect-leak", action="store_true")
    common(p)
    p.set_defaults(func=cmd_audit)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PauliAlgebraError, BackendError, SchemeError,
            resources.ResourceError, cv.GaussianError, qec.CodeError,
            ValueError, ProtocolViolation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
