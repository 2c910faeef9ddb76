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

import itertools
import json
import struct

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


def _read_json(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _write_json(path, doc: dict) -> None:
    # Encode before opening: a document that fails to encode leaves no truncated file.
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


_REQUIRED = object()


def _field(doc: dict, key: str, where, convert, default=_REQUIRED):
    """``convert(doc[key])``, or ``default`` when the key is absent; errors name the key."""
    if key not in doc:
        if default is _REQUIRED:
            raise FormatError(f"{where}: missing key '{key}'")
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: key '{key}': {exc}") from None


_JSON_TYPES = {int: "integer", float: "float", bool: "boolean", str: "string", type(None): "null",
               dict: "object", list: "array"}


def _exactly(*types):
    """Converter passing only values of exactly these JSON types: nothing is coerced, and ``true`` is no integer."""
    def check(value):
        if type(value) not in types:
            names = " or ".join(_JSON_TYPES[t] for t in types)
            raise TypeError(f"expected a JSON {names}, got {type(value).__name__}")
        return value
    return check


def _real(value) -> float:
    """A JSON number as a float; strings and booleans are rejected, not coerced."""
    return float(_exactly(int, float)(value))


def _number_array(value) -> np.ndarray:
    """A JSON array of numbers, or of arrays of numbers, as a float array; nothing is coerced.

    One type check per array, not per item: a scene holds thousands of numbers.
    """
    items = _exactly(list)(value)
    if items and type(items[0]) is list:
        items = itertools.chain.from_iterable(items)
    bad = set(map(type, items)) - {int, float}
    if bad:
        raise TypeError(f"expected JSON numbers, got {' and '.join(sorted(t.__name__ for t in bad))}")
    return np.asarray(value, dtype=float)


def _array_of(convert):
    """Converter for a JSON array whose items each go through ``convert``."""
    return lambda value: tuple(convert(v) for v in _exactly(list)(value))


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


def _cplx_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ValueError("must be an object with 're' and 'im' arrays")
    re, im = _number_array(obj["re"]), _number_array(obj["im"])
    if re.shape != im.shape:
        raise ValueError(f"'re' shape {re.shape} differs from 'im' shape {im.shape}")
    return _complex_from_parts(re, im)


def write_scene(path, scene: SyntheticScene) -> None:
    doc = {
        "omegas": np.asarray(scene.omegas, dtype=float).tolist(),
        "weights": _cplx_to_json(scene.weights),
        "noise_variances": np.asarray(scene.noise_variances, dtype=float).tolist(),
    }
    _write_json(path, doc)


def read_scene(path) -> SyntheticScene:
    doc = _read_json(path)
    omegas = _field(doc, "omegas", path, _number_array)
    weights = _field(doc, "weights", path, _cplx_from_json)
    noise_variances = _field(doc, "noise_variances", path, _number_array)
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

def parse_scenario(doc: dict, where: str = "scenario config") -> ScenarioConfig:
    M = _field(doc, "M", where, _exactly(int))
    L = _field(doc, "L", where, _exactly(int))
    if ("true_omegas" in doc) == ("true_thetas_deg" in doc):
        raise FormatError(f"{where}: give exactly one of 'true_omegas' or 'true_thetas_deg'")
    if "true_omegas" in doc:
        omegas = _field(doc, "true_omegas", where, _array_of(_real))
    else:
        omegas = _field(doc, "true_thetas_deg", where, _array_of(lambda t: theta_to_omega(_real(t))))
    K = _field(doc, "K", where, _exactly(int), len(omegas))
    if K != len(omegas):
        raise FormatError(f"{where}: key 'K' ({K}) does not match the {len(omegas)} frequencies")
    amp_doc = _field(doc, "amplitude", where, _exactly(dict), {})
    amp_where = f"{where}.amplitude"
    law = AmplitudeLaw(
        mag_mean=_field(amp_doc, "mag_mean", amp_where, _real, 1.0),
        mag_std=_field(amp_doc, "mag_std", amp_where, _real, 0.2),
    )
    snr_db = _field(doc, "snr_db", where, _real)
    delta_nu_db = _field(doc, "delta_nu_db", where, _real, 0.0)
    noise_case = _field(doc, "noise_case", where, NoiseCase.from_label)
    seed = _field(doc, "seed", where, _exactly(int), 0)
    try:
        return ScenarioConfig(M=M, L=L, K=K, true_omegas=omegas, snr_db=snr_db,
                              delta_nu_db=delta_nu_db, noise_case=noise_case,
                              amplitude_law=law, seed=seed)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def read_scenario_config(path) -> ScenarioConfig:
    return parse_scenario(_read_json(path), where=str(path))


def parse_sweep_config(doc: dict, where: str = "sweep config"):
    from .sweep import SweepConfig

    base = parse_scenario(_field(doc, "base", where, _exactly(dict)), where=f"{where}.base")
    sweep_axis = _field(doc, "sweep_axis", where, str)
    values = _field(doc, "values", where, _array_of(_real))
    trials = _field(doc, "trials", where, _exactly(int))
    algorithms = _field(doc, "algorithms", where, _array_of(str))
    include_crb = _field(doc, "include_crb", where, _exactly(bool), False)
    output_path = _field(doc, "output_path", where, _exactly(str, type(None)), None)
    try:
        return SweepConfig(base=base, sweep_axis=sweep_axis, values=values, trials=trials,
                           algorithms=algorithms, include_crb=include_crb, output_path=output_path)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def read_sweep_config(path):
    return parse_sweep_config(_read_json(path), where=str(path))


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
    _write_json(path, doc)


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
    _write_json(path, doc)
