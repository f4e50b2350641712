"""Channel definition files and the built-in channel library.

Channel files (.qch) are JSON: complex numbers are [re, im] pairs, Kraus
operators are nested matrices, optional cq signal vectors restrict the
usable inputs, and classical channels carry a row-stochastic "transition"
matrix instead of Kraus data.  Parse errors report line and column; validity
violations name the broken invariant with its defect magnitude.
"""

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import SX, SY, SZ, InvariantError, PureState, QuantumChannel
from .info import ClassicalChannel


class ChannelFileError(ValueError):
    pass


@dataclass
class ChannelFile:
    name: str
    channel: QuantumChannel = None
    signals: list = None  # PureState list for cq-restricted channels
    transition: np.ndarray = None  # classical channels only
    metadata: dict = field(default_factory=dict)


def _complex_entry(entry, where):
    if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
        raise ChannelFileError(f"{where}: expected an [re, im] pair, got {entry!r}")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry):
        raise ChannelFileError(f"{where}: non-numeric entry {entry!r}")
    return complex(*entry)


def _list(value, where):
    if not isinstance(value, list):
        raise ChannelFileError(f"{where}: expected a list, got {value!r}")
    return value


def _complex_matrix(rows, where):
    if not isinstance(rows, list) or not rows:
        raise ChannelFileError(f"{where}: expected a nonempty matrix")
    data = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ChannelFileError(f"{where}: row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ChannelFileError(f"{where}: ragged rows ({width} vs {len(row)})")
        data.append([_complex_entry(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)])
    return np.array(data, dtype=complex)


def parse_channel(path) -> ChannelFile:
    """Read and validate a channel file.

    Syntax errors carry the line and column; invariant violations carry the
    named defect magnitude from the underlying validator.
    """
    path = resolve_channel_path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ChannelFileError(
            f"{path}: syntax error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ChannelFileError(f"{path}: top level must be an object")
    name = doc.get("name", path.stem)
    metadata = doc.get("metadata", {}) or {}

    if "transition" in doc:
        try:
            classical = ClassicalChannel(doc["transition"])
        except (InvariantError, ValueError) as err:
            raise ChannelFileError(f"{path}: invalid transition matrix: {err}") from err
        return ChannelFile(name=name, transition=classical.transitions, metadata=metadata)

    if "kraus" not in doc:
        raise ChannelFileError(f"{path}: needs either 'kraus' or 'transition'")
    kraus = [
        _complex_matrix(mat, f"{path}: kraus[{k}]")
        for k, mat in enumerate(_list(doc["kraus"], f"{path}: kraus"))
    ]
    try:
        channel = QuantumChannel(kraus)
    except (InvariantError, ValueError) as err:
        raise ChannelFileError(f"{path}: invalid channel: {err}") from err
    for key in ("dim_in", "dim_out"):
        if key in doc and doc[key] != getattr(channel, key):
            raise ChannelFileError(
                f"{path}: declared {key}={doc[key]!r} but Kraus operators give {getattr(channel, key)}"
            )
    signals = None
    if _list(doc.get("signals", []), f"{path}: signals"):
        signals = []
        for k, vec in enumerate(doc["signals"]):
            amps = [_complex_entry(e, f"{path}: signals[{k}][{j}]")
                    for j, e in enumerate(_list(vec, f"{path}: signals[{k}]"))]
            try:
                signals.append(PureState(np.array(amps)))
            except InvariantError as err:
                raise ChannelFileError(f"{path}: signal {k} is not a unit vector: {err}") from err
            if signals[-1].dim != channel.dim_in:
                raise ChannelFileError(
                    f"{path}: signal {k} has dim {signals[-1].dim}, channel input is {channel.dim_in}"
                )
    return ChannelFile(name=name, channel=channel, signals=signals, metadata=metadata)


def resolve_channel_path(path) -> Path:
    """Resolve a channel argument: a filesystem path, or the name of one of
    the channel files shipped with the package."""
    p = Path(path)
    if p.exists():
        return p
    bundled = resources.files("qchancap").joinpath("data", p.name)
    if bundled.is_file():
        return Path(str(bundled))
    raise ChannelFileError(f"channel file not found: {path}")


# ---------------------------------------------------------------------------
# Built-in channel library.
# ---------------------------------------------------------------------------

TRINE_VECTORS = (
    np.array([1.0, 0.0]),
    np.array([-0.5, np.sqrt(3.0) / 2.0]),
    np.array([-0.5, -np.sqrt(3.0) / 2.0]),
)


def bit_flip(p: float) -> QuantumChannel:
    return QuantumChannel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * SX])


def dephasing(q: float) -> QuantumChannel:
    return QuantumChannel([np.sqrt(1 - q) * np.eye(2), np.sqrt(q) * SZ])


def depolarizing(p: float) -> QuantumChannel:
    """(1 - 4p/3) rho + (2p/3) I; p = 3/4 erases all input dependence."""
    return QuantumChannel(
        [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * SX,
         np.sqrt(p / 3) * SY, np.sqrt(p / 3) * SZ]
    )


def amplitude_damping(gamma: float) -> QuantumChannel:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return QuantumChannel([k0, k1])


def trine_signals() -> list:
    return [PureState(v) for v in TRINE_VECTORS]


def two_state_signals(theta: float) -> list:
    return [PureState([1.0, 0.0]), PureState([np.cos(theta), np.sin(theta)])]


def two_copy_trine_signals() -> list:
    return [PureState(np.kron(v, v)) for v in TRINE_VECTORS]


def bsc_embed(p: float) -> QuantumChannel:
    """Measure in the computational basis, then flip with probability p;
    diagonal outputs (each Kraus operator has one nonzero row) make this a
    quantum embedding of the classical BSC."""
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    return QuantumChannel(
        [np.sqrt(1 - p) * e0, np.sqrt(1 - p) * e1,
         np.sqrt(p) * SX @ e0, np.sqrt(p) * SX @ e1]
    )


def bsc_transition(p: float) -> np.ndarray:
    return np.array([[1 - p, p], [p, 1 - p]])
