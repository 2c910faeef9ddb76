"""File formats: snapshot matrices, scenes, configs, result tables.

Snapshot matrices have two interchangeable encodings that round-trip
bit-exactly:

* text: a two-line header (``M L`` then the noise case label) followed by
  ``M*L`` lines of ``re im`` in column-major order (all antennas of snapshot
  1, then snapshot 2, ...), floats printed with shortest round-trip repr;
* binary: magic bytes ``GDOA1``, little-endian uint32 ``M``, ``L`` and case
  index (1..4), then ``2*M*L`` little-endian float64 values interleaved
  ``re, im`` in the same order.

Scenes, scenario configs and sweep configs are JSON; result tables are CSV
with a header row.  Parse errors name the offending key.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .baselines import AngularGrid
from .model import (
    AmplitudeLaw,
    NoiseCase,
    ScenarioConfig,
    SnapshotMatrix,
    SyntheticScene,
    omega_to_theta,
    steering_matrix,
    theta_to_omega,
)

MAGIC = b"GDOA1"
_CASE_INDEX = {NoiseCase.I: 1, NoiseCase.II: 2, NoiseCase.III: 3, NoiseCase.IV: 4}
_INDEX_CASE = {i: c for c, i in _CASE_INDEX.items()}


class FormatError(ValueError):
    """A file did not match the expected schema."""


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- snapshots

def write_snapshots_text(path, snap: SnapshotMatrix) -> None:
    M, L = snap.M, snap.L
    lines = [f"{M} {L}", snap.case.value]
    data = snap.data
    for l in range(L):
        for m in range(M):
            z = data[m, l]
            lines.append(f"{_fmt(z.real)} {_fmt(z.imag)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshots_text(path) -> SnapshotMatrix:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise FormatError(f"{path}: missing snapshot header")
    try:
        M, L = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise FormatError(f"{path}: first header line must be 'M L', got {lines[0]!r}") from None
    case = NoiseCase.from_label(lines[1])
    body = lines[2:]
    if len(body) != M * L:
        raise FormatError(f"{path}: expected {M * L} data lines, found {len(body)}")
    data = np.empty((M, L), dtype=np.complex128)
    for idx, line in enumerate(body):
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"{path}: data line {idx + 3} must be 're im', got {line!r}")
        try:
            re, im = float(toks[0]), float(toks[1])
        except ValueError:
            raise FormatError(f"{path}: bad float on data line {idx + 3}: {line!r}") from None
        data[idx % M, idx // M] = complex(re, im)
    return SnapshotMatrix(data=data, case=case)


def write_snapshots_binary(path, snap: SnapshotMatrix) -> None:
    M, L = snap.M, snap.L
    interleaved = np.empty((L, M, 2))
    interleaved[:, :, 0] = snap.data.real.T
    interleaved[:, :, 1] = snap.data.imag.T
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", M, L, _CASE_INDEX[snap.case]))
        fh.write(interleaved.astype("<f8").tobytes())


def _complex_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array with exactly these parts (``re + 1j * im`` turns -0.0 into +0.0)."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def read_snapshots_binary(path) -> SnapshotMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic bytes, not a binary snapshot file")
    header_end = len(MAGIC) + 12
    if len(blob) < header_end:
        raise FormatError(f"{path}: truncated header")
    M, L, case_idx = struct.unpack("<III", blob[len(MAGIC):header_end])
    if case_idx not in _INDEX_CASE:
        raise FormatError(f"{path}: bad case index {case_idx}")
    expected = header_end + 16 * M * L
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    flat = np.frombuffer(blob[header_end:], dtype="<f8").reshape(L, M, 2)
    data = _complex_from_parts(flat[:, :, 0].T, flat[:, :, 1].T)
    return SnapshotMatrix(data=data, case=_INDEX_CASE[case_idx])


def write_snapshots(path, snap: SnapshotMatrix) -> None:
    """Dispatch on suffix: ``.bin`` is binary, anything else text."""
    if str(path).endswith(".bin"):
        write_snapshots_binary(path, snap)
    else:
        write_snapshots_text(path, snap)


def read_snapshots(path) -> SnapshotMatrix:
    """Sniff the magic bytes, fall back to the text format."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        return read_snapshots_binary(path)
    return read_snapshots_text(path)


# ------------------------------------------------------------------- scenes

def _cplx_to_json(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.complex128)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _cplx_from_json(obj, key: str) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise FormatError(f"key '{key}' must be an object with 're' and 'im' arrays")
    re, im = np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
    if re.shape != im.shape:
        raise FormatError(f"key '{key}': 're' shape {re.shape} differs from 'im' shape {im.shape}")
    return _complex_from_parts(re, im)


def write_scene(path, scene: SyntheticScene) -> None:
    doc = {
        "omegas": np.asarray(scene.omegas, dtype=float).tolist(),
        "weights": _cplx_to_json(scene.weights),
        "noise_variances": np.asarray(scene.noise_variances, dtype=float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_scene(path) -> SyntheticScene:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("omegas", "weights", "noise_variances"):
        if key not in doc:
            raise FormatError(f"{path}: missing key '{key}'")
    omegas = np.asarray(doc["omegas"], dtype=float)
    weights = _cplx_from_json(doc["weights"], "weights")
    noise_variances = np.asarray(doc["noise_variances"], dtype=float)
    if noise_variances.ndim != 2:
        raise FormatError(f"{path}: key 'noise_variances' must be an M x L grid, "
                          f"got shape {noise_variances.shape}")
    M, L = noise_variances.shape
    if omegas.size and weights.shape != (omegas.size, L):
        raise FormatError(f"{path}: key 'weights' has shape {weights.shape}, "
                          f"expected ({omegas.size}, {L})")
    # The clean signal is not stored; this rebuilds it exactly as synthesize_scene does.
    clean = steering_matrix(omegas, M) @ weights if omegas.size else np.zeros((M, L), dtype=np.complex128)
    return SyntheticScene(omegas=omegas, weights=weights, clean_signal=clean, noise_variances=noise_variances)


# ------------------------------------------------------------------ configs

def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing key '{key}'")
    return doc[key]


def parse_scenario(doc: dict, where: str = "scenario config") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object")
    M = int(_require(doc, "M", where))
    L = int(_require(doc, "L", where))
    if ("true_omegas" in doc) == ("true_thetas_deg" in doc):
        raise FormatError(f"{where}: give exactly one of 'true_omegas' or 'true_thetas_deg'")
    if "true_omegas" in doc:
        omegas = tuple(float(w) for w in doc["true_omegas"])
    else:
        omegas = tuple(float(theta_to_omega(t)) for t in doc["true_thetas_deg"])
    K = int(doc.get("K", len(omegas)))
    if K != len(omegas):
        raise FormatError(f"{where}: key 'K' ({K}) does not match the {len(omegas)} frequencies")
    amp_doc = doc.get("amplitude", {})
    if not isinstance(amp_doc, dict):
        raise FormatError(f"{where}: key 'amplitude' must be an object")
    law = AmplitudeLaw(
        mag_mean=float(amp_doc.get("mag_mean", 1.0)),
        mag_std=float(amp_doc.get("mag_std", 0.2)),
    )
    try:
        return ScenarioConfig(
            M=M,
            L=L,
            K=K,
            true_omegas=omegas,
            snr_db=float(_require(doc, "snr_db", where)),
            delta_nu_db=float(doc.get("delta_nu_db", 0.0)),
            noise_case=NoiseCase.from_label(_require(doc, "noise_case", where)),
            amplitude_law=law,
            seed=int(doc.get("seed", 0)),
        )
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def read_scenario_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(doc, where=str(path))


def scenario_to_doc(config: ScenarioConfig) -> dict:
    doc = asdict(config)
    doc["noise_case"] = config.noise_case.value
    doc["true_omegas"] = list(config.true_omegas)
    doc["amplitude"] = doc.pop("amplitude_law")
    return doc


def parse_sweep_config(doc: dict, where: str = "sweep config"):
    from .sweep import SweepConfig

    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object")
    base = parse_scenario(_require(doc, "base", where), where=f"{where}.base")
    try:
        return SweepConfig(
            base=base,
            sweep_axis=str(_require(doc, "sweep_axis", where)),
            values=tuple(float(v) for v in _require(doc, "values", where)),
            trials=int(_require(doc, "trials", where)),
            algorithms=tuple(str(a) for a in _require(doc, "algorithms", where)),
            include_crb=bool(doc.get("include_crb", False)),
            output_path=doc.get("output_path"),
        )
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def read_sweep_config(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_sweep_config(doc, where=str(path))


# ------------------------------------------------------------------- tables

def write_cbf_table(path, grid: AngularGrid, power: np.ndarray) -> None:
    lines = ["theta_deg,power"]
    for theta, p in zip(grid.thetas, power):
        lines.append(f"{_fmt(theta)},{_fmt(p)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_crb_report(path, omegas: np.ndarray, crb_block: np.ndarray, trace_db: float) -> None:
    doc = {
        "omegas": np.asarray(omegas, dtype=float).tolist(),
        "crb_frequencies": np.asarray(crb_block, dtype=float).tolist(),
        "trace_db": float(trace_db),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_estimation_result(path, result, case: NoiseCase) -> None:
    noise_values = result.noise.values
    doc = {
        "k_hat": result.k_hat,
        "omegas": np.asarray(result.omegas, dtype=float).tolist(),
        "kappas": np.asarray(result.kappas, dtype=float).tolist(),
        "thetas_deg": [float(omega_to_theta(w)) for w in result.omegas],
        "weights": _cplx_to_json(result.weights),
        "signal": _cplx_to_json(result.signal),
        "noise": {
            "case": result.noise.case.value,
            "values": noise_values if np.isscalar(noise_values)
            else np.asarray(noise_values, dtype=float).tolist(),
        },
        "rho": result.hyper.rho,
        "tau": result.hyper.tau,
        "iterations": result.iterations,
        "converged": result.converged,
        "assumed_case": case.value,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_estimation_summary(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
