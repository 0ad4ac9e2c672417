"""Command-line interface: simulate, sweep, entanglement, validate.

Exit codes: 0 success, 1 validation-suite failure, 2 bad input,
3 numerical failure.  Times are given in units of 1/epsilon unless
``--si`` is passed, in which case --time is seconds and --epsilon rad/s.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    Frame,
    ModelParams,
    PropagationError,
    build_hamiltonian,
    evolve_closed_form,
    propagate_numeric,
)
from .entanglement import concurrence, fidelity, ghz_state, partial_trace, w_state
from .fock import (
    AtomLevel,
    Basis,
    StateVector,
    atom_population,
    build_basis,
    initial_state,
    require_full_dimension,
    state_to_dict,
)
from .protocol import (
    SCHEMA_VERSION,
    SweepParameter,
    SweepSpec,
    coupling_disorder_sweep,
    detuning_sweep,
    fmt12,
    mode_count_sweep,
    optimal_time,
    round12,
    timing_error_sweep,
)
from .validation import DEFAULT_SEED, run_validation

# atomic/mode frequency used for lab-frame runs; the CLI always works on
# resonance, so the value only sets the frame-rotation phase
LAB_OMEGA = 1.0

_FRAMES = {"lab": Frame.LAB, "interaction": Frame.INTERACTION}
_PARAMETERS = {p.value: p for p in SweepParameter}


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


@dataclass(frozen=True)
class Option:
    """One CLI option: the flag ``--<key>`` (``_`` spelled ``-``) and the
    config-file key ``<key>``.  ``parse`` reads a config-file value; a
    boolean option is a bare flag.  ``valid`` and ``requirement`` state
    the check that every resolved value other than None must pass."""

    parse: Callable[[str], object]
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    valid: Callable[[object], bool] | None = None
    requirement: str = ""


# every option, in the order the resolved config is echoed
OPTIONS = {
    "n": Option(int, 3, "number of modes (default 3)", valid=lambda v: v >= 1,
                requirement="must be >= 1"),
    "epsilon": Option(float, 1.0, "coupling strength (default 1)",
                      valid=lambda v: math.isfinite(v) and v > 0,
                      requirement="must be finite and > 0"),
    "time": Option(float, None, "interaction time in 1/epsilon units (default: optimal)",
                   valid=math.isfinite, requirement="must be finite"),
    "frame": Option(str, "interaction", "evolution frame (default interaction)",
                    choices=tuple(sorted(_FRAMES))),
    "nmax": Option(int, 1, "photon truncation per mode (default 1)", valid=lambda v: v >= 1,
                   requirement="must be >= 1"),
    "out": Option(str, None, "output path, '-' for stdout"),
    "format": Option(str, "json", choices=("csv", "json")),
    "seed": Option(int, 0),
    "dump_state": Option(_parse_bool, False, "include the full state vector in the report"),
    "si": Option(_parse_bool, False, "interpret --time as seconds and --epsilon as rad/s"),
    "parameter": Option(str, "timing-error", "swept quantity (default timing-error)",
                        choices=tuple(sorted(_PARAMETERS))),
    "grid": Option(str, None, "comma-separated grid values"),
    "trials": Option(int, None, "Monte-Carlo trials per grid point (disorder sweeps)"),
}


@dataclass(frozen=True)
class Command:
    """A subcommand and the options it reads; it accepts no others."""

    help: str
    options: frozenset[str]
    defaults: dict = field(default_factory=dict)


COMMANDS = {
    "simulate": Command(
        "evolve once and score against the W target",
        frozenset({"n", "epsilon", "time", "frame", "nmax", "out", "format", "dump_state", "si"}),
    ),
    "sweep": Command(
        "robustness sweep over a parameter grid",
        frozenset({"n", "epsilon", "out", "format", "seed", "parameter", "grid", "trials"}),
        {"format": "csv"},
    ),
    "entanglement": Command(
        "pairwise concurrences of W versus GHZ reductions", frozenset({"n", "out", "format"})
    ),
    "validate": Command(
        "run the invariant self-check suite",
        frozenset({"out", "format", "seed"}),
        {"seed": DEFAULT_SEED},
    ),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcavity",
        description="Single-atom multi-cavity W-state preparation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for key, option in OPTIONS.items():
            if key not in command.options:
                continue
            if option.parse is _parse_bool:
                cmd.add_argument(_flag(key), action="store_true", default=None, help=option.help)
            else:
                cmd.add_argument(_flag(key), type=option.parse, choices=option.choices,
                                 default=None, help=option.help)
        cmd.add_argument("--config", default=None,
                         help="flat key=value config file; flags override")
    sub.choices["validate"].add_argument("--inject-fault", action="store_true",
                                         default=False, help=argparse.SUPPRESS)
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _default_grid(parameter: SweepParameter, n: int) -> tuple[float, ...]:
    if parameter is SweepParameter.TIMING_ERROR:
        span = 0.2 * math.pi / (2.0 * math.sqrt(n))  # +-20% of the optimal time
        return tuple(np.linspace(-span, span, 41))
    if parameter is SweepParameter.COUPLING_DISORDER:
        return tuple(np.linspace(0.0, 0.1, 11))
    if parameter is SweepParameter.DETUNING:
        return tuple(np.linspace(-2.0, 2.0, 41))
    return tuple(float(n) for n in range(1, 9))


def resolve_config(args) -> dict:
    """The command and the value of each option it reads, in ``OPTIONS``
    order: the flag if given, else the config-file value, else the
    command's default, else the option's."""
    command = COMMANDS[args.command]
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - command.options
    if unknown:
        raise ValueError(f"unknown config file keys: {sorted(unknown)}")

    config = {"command": args.command}
    for key, option in OPTIONS.items():
        if key not in command.options:
            continue
        value = getattr(args, key)
        if value is None and key in file_values:
            value = option.parse(file_values[key])
        if value is None:
            value = command.defaults.get(key, option.default)
        if value is not None:
            if option.choices is not None and value not in option.choices:
                raise ValueError(f"unknown {key} {value!r}")
            if option.valid is not None and not option.valid(value):
                raise ValueError(f"{_flag(key)} {option.requirement}")
        config[key] = value

    if config["out"] is None:
        if args.command == "sweep":
            raise ValueError("sweep requires --out")
        config["out"] = "-"
    if args.command == "sweep":
        parameter = _PARAMETERS[config["parameter"]]
        grid_raw = config["grid"]
        if grid_raw is None:
            config["grid"] = _default_grid(parameter, config["n"])
        else:
            try:
                config["grid"] = tuple(float(v) for v in grid_raw.split(",") if v.strip())
            except ValueError as exc:
                raise ValueError(f"could not parse --grid {grid_raw!r}") from exc
        if config["trials"] is None:
            config["trials"] = 100 if parameter is SweepParameter.COUPLING_DISORDER else 1
    return config


def _echo(config: dict) -> dict:
    """The resolved config as reports embed it; a sweep's grid, trials and
    seed are grouped under ``sweep``."""
    echo = {k: v for k, v in config.items() if k not in ("parameter", "grid", "trials")}
    if config["command"] == "sweep":
        echo["sweep"] = {
            "parameter": config["parameter"],
            "grid": list(config["grid"]),
            "trials": config["trials"],
            "seed": config["seed"],
        }
    return echo


def _rounded(value):
    if isinstance(value, float):
        return round12(value)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _leaves(key: str, value):
    """(dotted key, value) for each non-dict value under ``value``."""
    if isinstance(value, dict):
        for sub, inner in value.items():
            yield from _leaves(f"{key}.{sub}", inner)
    else:
        yield key, value


def _report_to_csv(report: dict) -> str:
    """Comment lines, then each list-of-dict table with its keys as header,
    then one ``key,value`` line per leaf of the other entries, then the
    dumped state's amplitudes."""
    lines = [f"# schema_version={report['schema_version']}"]
    lines.append("# config=" + json.dumps(report["config"], sort_keys=True))
    body = {k: v for k, v in report.items() if k not in ("schema_version", "config", "state")}
    for table in (v for v in body.values() if isinstance(v, list)):
        keys = list(table[0])
        lines.append(",".join(keys))
        lines.extend(",".join(_csv_cell(row[k]) for k in keys) for row in table)
    for key, value in body.items():
        if not isinstance(value, list):
            lines.extend(f"{k},{_csv_cell(v)}" for k, v in _leaves(key, value))
    if "state" in report:
        lines.append("amplitude_index,re,im")
        for k, (re, im) in enumerate(report["state"]["amplitudes"]):
            lines.append(f"{k},{_csv_cell(re)},{_csv_cell(im)}")
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return fmt12(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _emit(report: dict, config: dict) -> None:
    if config["format"] == "json":
        text = json.dumps(_rounded(report), indent=2) + "\n"
    else:
        text = _report_to_csv(_rounded(report))
    if config["out"] == "-":
        sys.stdout.write(text)
    else:
        Path(config["out"]).write_text(text)


def _embed(psi: StateVector, basis: Basis) -> StateVector:
    """psi on a basis that contains all of psi's basis states."""
    amps = np.zeros(basis.dim, dtype=complex)
    amps[[basis.index[s] for s in psi.basis.states]] = psi.amplitudes
    return StateVector(basis, amps)


def cmd_simulate(config: dict) -> int:
    # Admission still counts the full truncated space, which --dump-state
    # reports, but the evolution runs in the excitation <= 1 sub-basis
    # (N + 2 states): H conserves the excitation number, so the sector
    # holding the initial state is closed under it.
    n, n_max, eps, frame = config["n"], config["nmax"], config["epsilon"], _FRAMES[config["frame"]]
    require_full_dimension(n, n_max)
    basis = build_basis(n, n_max=n_max, excitation_cap=1)
    t_star = optimal_time(n, eps)
    if config["time"] is None:
        t = t_star
    elif config["si"]:
        t = config["time"]
    else:
        t = config["time"] / eps

    interaction = ModelParams.resonant(n, eps, omega=LAB_OMEGA, frame=Frame.INTERACTION)
    evolving = ModelParams.resonant(n, eps, omega=LAB_OMEGA, frame=frame)
    closed = evolve_closed_form(interaction, t, basis)
    H = build_hamiltonian(evolving, basis)
    numeric = propagate_numeric(H, initial_state(basis), t)

    if frame is Frame.INTERACTION:
        gap = float(np.max(np.abs(closed.amplitudes - numeric.amplitudes)))
    else:
        # frame rotation shifts phases; moduli are the invariant quantities
        gap = float(np.max(np.abs(np.abs(closed.amplitudes) - np.abs(numeric.amplitudes))))

    # the W target has the atom in its ground state, so the overlap with it
    # is also the success probability
    f = fidelity(w_state(n, basis), numeric)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": _echo(config),
        "t": t,
        "t_star": t_star,
        "fidelity_W": f,
        "success_prob": f,
        "atom_ground_prob": atom_population(numeric, AtomLevel.GROUND),
        "closed_vs_numeric_gap": gap,
    }
    if config["dump_state"]:
        full = build_basis(n, n_max=n_max)
        report["state"] = state_to_dict(_embed(numeric, full))
    _emit(report, config)
    return 0


def _sidecar_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".meta.json")
    return Path(str(out) + ".meta.json")


def cmd_sweep(config: dict) -> int:
    spec = SweepSpec(
        _PARAMETERS[config["parameter"]], config["grid"],
        trials=config["trials"], seed=config["seed"],
    )
    n, eps = config["n"], config["epsilon"]
    if spec.parameter is SweepParameter.TIMING_ERROR:
        result = timing_error_sweep(n, eps, spec)
    elif spec.parameter is SweepParameter.COUPLING_DISORDER:
        result = coupling_disorder_sweep(n, eps, spec)
    elif spec.parameter is SweepParameter.DETUNING:
        result = detuning_sweep(n, eps, spec)
    else:
        result = mode_count_sweep(eps, spec)
    result.metadata["config"] = json.dumps(_echo(config), sort_keys=True)

    out = Path(config["out"])
    written: list[Path] = []
    try:
        if config["format"] == "csv":
            out.write_text(result.to_csv_text())
            written.append(out)
            sidecar = _sidecar_path(out)
            sidecar.write_text(json.dumps(_rounded(result.metadata), indent=2) + "\n")
            written.append(sidecar)
        else:
            out.write_text(json.dumps(_rounded(result.to_dict()), indent=2) + "\n")
            written.append(out)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return 0


def cmd_entanglement(config: dict) -> int:
    n = config["n"]
    if n < 2:
        raise ValueError("entanglement comparison needs --n >= 2")
    basis = build_basis(n, n_max=1)  # uncapped: GHZ holds n photons
    w = w_state(n, basis)
    ghz = ghz_state(n, basis)
    rows = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        traced = [0] + [m for m in range(1, n + 1) if m not in (i, j)]
        rows.append(
            {
                "pair": [i, j],
                "traced_out": traced,
                "concurrence_w": concurrence(partial_trace(w, {i, j})),
                "concurrence_ghz": concurrence(partial_trace(ghz, {i, j})),
            }
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": _echo(config),
        "n": n,
        "rows": rows,
    }
    _emit(report, config)
    return 0


def cmd_validate(config: dict, inject_fault: bool) -> int:
    report = run_validation(seed=config["seed"], inject_fault=inject_fault)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: measured={check.measured:.3e} "
            f"tolerance={check.tolerance:g} cases={check.cases}"
        )
    print(
        f"summary: checks_run={report.checks_run} passed={report.passed} "
        f"failed={report.failed}"
    )
    if config["out"] != "-":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _echo(config),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "cases": c.cases,
                }
                for c in report.checks
            ],
            "summary": {
                "checks_run": report.checks_run,
                "passed": report.passed,
                "failed": report.failed,
            },
        }
        _emit(payload, config)
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        config = resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "entanglement":
            return cmd_entanglement(config)
        return cmd_validate(config, args.inject_fault)
    except PropagationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
