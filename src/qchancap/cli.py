"""Command-line front end.

Parses channel definition files, dispatches the capacity engines, and emits
line-prefixed key:value reports or CSV.  Reports always carry the engine's
certificates (dual gap, Frank-Wolfe gap, pricing residual, restart spread)
alongside the value, because two of the engines are heuristics and honesty
is part of the interface.  Exit codes: 0 converged, 2 round limit, 1 error.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (
    DensityMatrix,
    Ensemble,
    Povm,
    PureState,
    channel_ensemble,
    check_tolerance,
    von_neumann_entropy,
)
from .c1inf import C1InfOptions, C1InfProblem, c1inf
from .c11 import C11Options, c11, optimize_measurement, optimize_measurement_task
from .channels import ChannelFile, ChannelFileError, parse_channel, two_state_signals
from .ea import LimitedEaOptions, c_ea, coherent_info_max, limited_ea
from .info import (
    ClassicalChannel,
    arimoto_blahut,
    holevo_chi,
)
from .optim import lockstep
from .oracles import grid_accessible_info_2d, grid_density_objective, simplex_enumerate_chi


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"  # +0.0 folds IEEE negative zero into "0"


def _dump_vector(vec: np.ndarray) -> list:
    return [[float(a.real), float(a.imag)] for a in np.asarray(vec, dtype=complex)]


def _dump_matrix(mat: np.ndarray) -> list:
    return [_dump_vector(row) for row in np.asarray(mat, dtype=complex)]


def dump_ensemble(ens: Ensemble) -> list:
    out = []
    for p, s in ens.items():
        if isinstance(s, PureState):
            out.append([float(p), _dump_vector(s.vec)])
        else:
            out.append([float(p), _dump_matrix(s.mat)])
    return out


def dump_povm(povm: Povm) -> list:
    return [[float(q), _dump_vector(w.vec)] for q, w in zip(povm.weights, povm.directions)]


def load_ensemble(dumped, dim: int) -> Ensemble:
    items = []
    for p, payload in dumped:
        arr = np.asarray(payload, dtype=float)
        if arr.ndim == 2:  # vector of [re, im] pairs
            items.append((p, PureState(arr[:, 0] + 1j * arr[:, 1])))
        else:
            items.append((p, DensityMatrix(arr[..., 0] + 1j * arr[..., 1])))
    return Ensemble(items)


def load_povm(dumped) -> Povm:
    items = []
    for q, vec in dumped:
        arr = np.asarray(vec, dtype=float)
        items.append((q, PureState(arr[:, 0] + 1j * arr[:, 1])))
    return Povm(items)


@dataclass
class RunReport:
    capacity: str
    value_bits: float
    status: str
    seed: int = None
    certificates: dict = field(default_factory=dict)
    dumps: dict = field(default_factory=dict)  # ensemble / povm / rho payloads
    extras: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    version: str = __version__

    def to_text(self) -> str:
        lines = [
            f"capacity: {self.capacity}",
            f"value_bits: {_fmt(self.value_bits)}",
            f"status: {self.status}",
        ]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for key in sorted(self.certificates):
            lines.append(f"cert_{key}: {_fmt(self.certificates[key])}")
        for key in sorted(self.extras):
            lines.append(f"{key}: {json.dumps(self.extras[key])}")
        for key in sorted(self.dumps):
            lines.append(f"{key}: {json.dumps(self.dumps[key])}")
        lines.append(f"wall_time_s: {self.wall_time_s:.3f}")
        lines.append(f"version: {self.version}")
        return "\n".join(lines) + "\n"

    CSV_HEADER = [
        "capacity", "value_bits", "status", "seed",
        "cert_dual_gap", "cert_pricing_residual", "cert_fw_gap", "cert_restart_spread",
        "version",
    ]

    def to_csv_row(self) -> list:
        certs = self.certificates
        return [
            self.capacity,
            _fmt(self.value_bits),
            self.status,
            "" if self.seed is None else str(self.seed),
            _fmt(certs["dual_gap"]) if "dual_gap" in certs else "",
            _fmt(certs["pricing_residual"]) if "pricing_residual" in certs else "",
            _fmt(certs["fw_gap"]) if "fw_gap" in certs else "",
            _fmt(certs["restart_spread"]) if "restart_spread" in certs else "",
            self.version,
        ]


def emit_csv(header, rows, stream) -> None:
    """RFC-4180-style CSV: header row, 12-significant-digit floats,
    deterministic row order (as given)."""
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([x if isinstance(x, str) else _fmt(x) for x in row])


def _uniform_signal_ensemble(cf: ChannelFile) -> Ensemble:
    if not cf.signals:
        raise ChannelFileError(
            f"channel '{cf.name}' carries no signal set; chi/accinfo need one"
        )
    k = len(cf.signals)
    return Ensemble([(1.0 / k, s) for s in cf.signals])


def _cmd_chi(args) -> RunReport:
    cf = parse_channel(args.channel)
    ens = _uniform_signal_ensemble(cf)
    out_ens = channel_ensemble(cf.channel, ens)
    value = holevo_chi(out_ens)
    return RunReport(
        capacity="chi", value_bits=value, status="converged",
        dumps={"ensemble": dump_ensemble(ens)},
    )


def _cmd_accinfo(args) -> RunReport:
    cf = parse_channel(args.channel)
    ens = _uniform_signal_ensemble(cf)
    out_ens = channel_ensemble(cf.channel, ens)
    opts = C11Options(starts=args.starts, pricing_tol=args.tol, measurement_rounds=args.max_rounds)
    povm, value, status = optimize_measurement(out_ens, opts, np.random.default_rng(args.seed))
    return RunReport(
        capacity="accinfo", value_bits=value, status=status, seed=args.seed,
        certificates={"holevo_gap": holevo_chi(out_ens) - value},
        dumps={"ensemble": dump_ensemble(ens), "povm": dump_povm(povm)},
    )


def _cmd_c1inf(args) -> RunReport:
    cf = parse_channel(args.channel)
    opts = C1InfOptions(
        tol=args.tol, starts=args.starts, seed=args.seed, max_rounds=args.max_rounds
    )
    res = c1inf(C1InfProblem(cf.channel, restricted_signals=cf.signals, options=opts))
    return RunReport(
        capacity="c1inf", value_bits=res.value, status=res.status, seed=args.seed,
        certificates={
            "dual_gap": res.dual_gap,
            "pricing_residual": res.pricing_residual,
            "rounds": res.rounds,
        },
        dumps={"ensemble": dump_ensemble(res.ensemble)},
    )


def _cmd_c11(args) -> RunReport:
    cf = parse_channel(args.channel)
    opts = C11Options(starts=args.starts, pricing_tol=args.tol, measurement_rounds=args.max_rounds)
    res = c11(cf.channel, restricted_signals=cf.signals,
              restarts=args.restarts, seed=args.seed, opts=opts)
    spread = max(res.restart_values) - min(res.restart_values)
    return RunReport(
        capacity="c11", value_bits=res.value, status=res.status, seed=args.seed,
        certificates={"restart_spread": spread},
        extras={"restart_values": [round(v, 12) for v in res.restart_values]},
        dumps={"ensemble": dump_ensemble(res.ensemble), "povm": dump_povm(res.povm)},
    )


def _cmd_cea(args) -> RunReport:
    cf = parse_channel(args.channel)
    res = c_ea(cf.channel, tol=args.tol)
    status = "converged" if res.gradient_residual < args.tol else "round-limit"
    return RunReport(
        capacity="cea", value_bits=res.value, status=status,
        certificates={
            "fw_gap": res.gradient_residual,
            "entanglement_rate": res.entanglement_rate,
            "iterations": res.iterations,
        },
        dumps={"rho": _dump_matrix(res.rho_star.mat)},
    )


def _cmd_coherent(args) -> RunReport:
    cf = parse_channel(args.channel)
    res = coherent_info_max(cf.channel, starts=args.starts, seed=args.seed)
    return RunReport(
        capacity="coherent", value_bits=res.value, status="converged", seed=args.seed,
        certificates={"local_maxima": len(res.local_maxima)},
        extras={"local_values": [round(v, 12) for v, _ in res.local_maxima]},
        dumps={"rho": _dump_matrix(res.rho_star.mat)},
    )


def _cmd_limited_ea(args) -> RunReport:
    cf = parse_channel(args.channel)
    opts = LimitedEaOptions(seed=args.seed, tol=max(args.tol, 1e-8))
    value, ens, status = limited_ea(cf.channel, args.B, opts)
    return RunReport(
        capacity="limited-ea", value_bits=value, status=status, seed=args.seed,
        certificates={"budget_bits": args.B},
        extras={"experimental": True},
        dumps={"ensemble": dump_ensemble(ens)},
    )


def _cmd_arimoto_blahut(args) -> RunReport:
    cf = parse_channel(args.channel)
    if cf.transition is None:
        raise ChannelFileError(
            f"channel '{cf.name}' is quantum; arimoto-blahut needs a 'transition' matrix"
        )
    value, dist = arimoto_blahut(ClassicalChannel(cf.transition), tol=args.tol)
    return RunReport(
        capacity="arimoto-blahut", value_bits=value, status="converged",
        extras={"input_distribution": [round(float(p), 12) for p in dist]},
    )


def _cmd_oracle(args) -> RunReport:
    cf = parse_channel(args.channel)
    if args.name == "accinfo":
        ens = _uniform_signal_ensemble(cf)
        out_ens = channel_ensemble(cf.channel, ens)
        value = grid_accessible_info_2d(out_ens, args.step)
    elif args.name in ("qmi", "coherent"):
        value, _ = grid_density_objective(cf.channel, args.name, args.step)
    elif args.name == "simplex-chi":
        if not cf.signals:
            raise ChannelFileError("simplex-chi needs a channel file with signals")
        value, _ = simplex_enumerate_chi(cf.channel, cf.signals, args.step)
    else:
        raise ValueError(f"unknown oracle {args.name!r}")
    return RunReport(
        capacity=f"oracle-{args.name}", value_bits=value, status="converged",
        extras={"step": args.step},
    )


def fig1_rows(steps: int, seed: int = 0, tol: float = 1e-7):
    """The accessible-information / entropy sweep over two-state angles.

    Each row's measurement is optimized from its own random stream seeded
    with `seed`; the rows run in lockstep (optim.lockstep), so each round
    of their pricing searches is one batched sphere search.
    """
    from .core import identity_channel

    if steps < 2:
        raise ValueError(f"the sweep needs at least 2 steps, got {steps}")
    ch = identity_channel(2)
    thetas = [(np.pi / 2) * j / (steps - 1) for j in range(steps)]
    ensembles = [Ensemble([(0.5, s) for s in two_state_signals(theta)]) for theta in thetas]
    opts = C11Options(pricing_tol=tol)
    measured = lockstep([
        optimize_measurement_task(channel_ensemble(ch, ens), opts, np.random.default_rng(seed))
        for ens in ensembles
    ])
    return [(theta, i_acc, von_neumann_entropy(ens.average_density()))
            for theta, ens, (_, i_acc, _) in zip(thetas, ensembles, measured)]


def _cmd_sweep(args):
    if args.curve != "fig1":
        raise ValueError(f"unknown sweep curve {args.curve!r}")
    rows = fig1_rows(args.steps, seed=args.seed, tol=args.tol)
    return ("theta", "i_acc_bits", "h_vn_bits"), rows


_FLAGS = {
    "--channel": dict(required=True, help="channel file (.qch) path or bundled name"),
    "--tol": dict(type=float, default=1e-7),
    "--seed": dict(type=int, default=0),
    "--starts": dict(type=int, default=8),
    "--restarts": dict(type=int, default=8),
    "--max-rounds": dict(type=int, default=200, dest="max_rounds"),
    "--B": dict(type=float, required=True, help="entanglement budget in bits"),
    "--name": dict(required=True, choices=("accinfo", "qmi", "coherent", "simplex-chi")),
    "--step": dict(type=float, default=1e-3),
    "--curve": dict(default="fig1"),
    "--steps": dict(type=int, default=64),
    "--out": dict(default=None, help="write the report/CSV to this path"),
    "--format": dict(choices=("text", "csv"), default="text"),
}

_SEARCH = ("--channel", "--tol", "--seed", "--starts", "--max-rounds")
_OUTPUT = ("--out", "--format")

# each subcommand's handler and the flags it reads
_COMMANDS = {
    "chi": (_cmd_chi, ("--channel", *_OUTPUT)),
    "accinfo": (_cmd_accinfo, (*_SEARCH, *_OUTPUT)),
    "c11": (_cmd_c11, (*_SEARCH, "--restarts", *_OUTPUT)),
    "c1inf": (_cmd_c1inf, (*_SEARCH, *_OUTPUT)),
    "cea": (_cmd_cea, ("--channel", "--tol", *_OUTPUT)),
    "coherent": (_cmd_coherent, ("--channel", "--seed", "--starts", *_OUTPUT)),
    "arimoto-blahut": (_cmd_arimoto_blahut, ("--channel", "--tol", *_OUTPUT)),
    "limited-ea": (_cmd_limited_ea, ("--channel", "--seed", "--tol", "--B", *_OUTPUT)),
    "oracle": (_cmd_oracle, ("--channel", "--name", "--step", *_OUTPUT)),
    "sweep": (_cmd_sweep, ("--curve", "--steps", "--seed", "--tol", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchancap",
        description="Numerical information-transmission capacities of quantum channels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits 2 on bad flags; 2 is reserved for round-limit here
        return 0 if exit_err.code == 0 else 1
    try:
        if "tol" in args:
            check_tolerance(args.tol, "--tol")
        handler = _COMMANDS[args.command][0]
        if args.command == "sweep":
            header, rows = handler(args)
            if args.out:
                with open(args.out, "w", newline="") as fh:
                    emit_csv(header, rows, fh)
            else:
                emit_csv(header, rows, sys.stdout)
            return 0
        started = time.monotonic()
        report = handler(args)
        report.wall_time_s = time.monotonic() - started
        if args.format == "csv":
            rows = [report.to_csv_row()]
            if args.out:
                with open(args.out, "w", newline="") as fh:
                    emit_csv(RunReport.CSV_HEADER, rows, fh)
            else:
                emit_csv(RunReport.CSV_HEADER, rows, sys.stdout)
        else:
            text = report.to_text()
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            sys.stdout.write(text)
        return 0 if report.status == "converged" else 2
    except (ChannelFileError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
