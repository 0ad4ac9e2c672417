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
from dataclasses import dataclass
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
_FORMATS = ("csv", "json")
_PARAMETERS = {p.value: p for p in SweepParameter}


@dataclass
class RunConfig:
    command: str
    n_modes: int
    epsilon: float
    time: float | None
    sweep: SweepSpec | None
    output_path: str
    format: str
    frame: Frame
    n_max: int
    dump_state: bool
    seed: int
    si: bool

    def echo(self) -> dict:
        data = {
            "command": self.command,
            "n": self.n_modes,
            "epsilon": self.epsilon,
            "time": self.time,
            "frame": self.frame.value,
            "nmax": self.n_max,
            "out": self.output_path,
            "format": self.format,
            "seed": self.seed,
            "dump_state": self.dump_state,
            "si": self.si,
        }
        if self.sweep is not None:
            data["sweep"] = {
                "parameter": self.sweep.parameter.value,
                "grid": list(self.sweep.grid),
                "trials": self.sweep.trials,
                "seed": self.sweep.seed,
            }
        return data


def _add_common_arguments(parser):
    parser.add_argument("--n", type=int, default=None, help="number of modes (default 3)")
    parser.add_argument("--epsilon", type=float, default=None, help="coupling strength (default 1)")
    parser.add_argument("--time", type=float, default=None,
                        help="interaction time in 1/epsilon units (default: optimal)")
    parser.add_argument("--frame", choices=sorted(_FRAMES), default=None,
                        help="evolution frame (default interaction)")
    parser.add_argument("--nmax", type=int, default=None, help="photon truncation per mode (default 1)")
    parser.add_argument("--out", default=None, help="output path, '-' for stdout")
    parser.add_argument("--format", choices=_FORMATS, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dump-state", action="store_true", default=None,
                        help="include the full state vector in the report")
    parser.add_argument("--si", action="store_true", default=None,
                        help="interpret --time as seconds and --epsilon as rad/s")
    parser.add_argument("--config", default=None, help="flat key=value config file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcavity",
        description="Single-atom multi-cavity W-state preparation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="evolve once and score against the W target")
    _add_common_arguments(simulate)

    sweep = sub.add_parser("sweep", help="robustness sweep over a parameter grid")
    _add_common_arguments(sweep)
    sweep.add_argument("--parameter", choices=sorted(_PARAMETERS), default=None,
                       help="swept quantity (default timing-error)")
    sweep.add_argument("--grid", default=None, help="comma-separated grid values")
    sweep.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo trials per grid point (disorder sweeps)")

    ent = sub.add_parser("entanglement", help="pairwise concurrences of W versus GHZ reductions")
    _add_common_arguments(ent)

    validate = sub.add_parser("validate", help="run the invariant self-check suite")
    _add_common_arguments(validate)
    validate.add_argument("--inject-fault", action="store_true", default=None,
                          help=argparse.SUPPRESS)

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


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


_FILE_PARSERS = {
    "n": int,
    "nmax": int,
    "seed": int,
    "trials": int,
    "epsilon": float,
    "time": float,
    "frame": str,
    "format": str,
    "out": str,
    "parameter": str,
    "grid": str,
    "dump_state": _parse_bool,
    "si": _parse_bool,
}


def _pick(args, file_values: dict, key: str, default):
    from_flag = getattr(args, key, None)
    if from_flag is not None:
        return from_flag
    if key in file_values:
        return _FILE_PARSERS[key](file_values[key])
    return default


def _default_grid(parameter: SweepParameter, n: int) -> tuple[float, ...]:
    if parameter is SweepParameter.TIMING_ERROR:
        span = 0.2 * math.pi / (2.0 * math.sqrt(n))  # +-20% of the optimal time
        return tuple(np.linspace(-span, span, 41))
    if parameter is SweepParameter.COUPLING_DISORDER:
        return tuple(np.linspace(0.0, 0.1, 11))
    if parameter is SweepParameter.DETUNING:
        return tuple(np.linspace(-2.0, 2.0, 41))
    return tuple(float(n) for n in range(1, 9))


def resolve_config(args) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(_FILE_PARSERS)
    if unknown:
        raise ValueError(f"unknown config file keys: {sorted(unknown)}")

    command = args.command
    n = _pick(args, file_values, "n", 3)
    epsilon = _pick(args, file_values, "epsilon", 1.0)
    time = _pick(args, file_values, "time", None)
    frame_name = _pick(args, file_values, "frame", "interaction")
    n_max = _pick(args, file_values, "nmax", 1)
    default_format = "csv" if command == "sweep" else "json"
    fmt = _pick(args, file_values, "format", default_format)
    out = _pick(args, file_values, "out", None)
    seed = _pick(args, file_values, "seed", DEFAULT_SEED if command == "validate" else 0)
    dump_state = bool(_pick(args, file_values, "dump_state", False))
    si = bool(_pick(args, file_values, "si", False))

    if n < 1:
        raise ValueError("--n must be >= 1")
    if epsilon <= 0:
        raise ValueError("--epsilon must be > 0")
    if n_max < 1:
        raise ValueError("--nmax must be >= 1")
    if frame_name not in _FRAMES:
        raise ValueError(f"unknown frame {frame_name!r}")
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")

    sweep_spec = None
    if command == "sweep":
        if out is None:
            raise ValueError("sweep requires --out")
        parameter_name = _pick(args, file_values, "parameter", "timing-error")
        if parameter_name not in _PARAMETERS:
            raise ValueError(f"unknown sweep parameter {parameter_name!r}")
        parameter = _PARAMETERS[parameter_name]
        grid_raw = _pick(args, file_values, "grid", None)
        if grid_raw is None:
            grid = _default_grid(parameter, n)
        else:
            try:
                grid = tuple(float(v) for v in str(grid_raw).split(",") if v.strip())
            except ValueError as exc:
                raise ValueError(f"could not parse --grid {grid_raw!r}") from exc
        default_trials = 100 if parameter is SweepParameter.COUPLING_DISORDER else 1
        trials = _pick(args, file_values, "trials", default_trials)
        sweep_spec = SweepSpec(parameter, grid, trials=trials, seed=seed)
    elif out is None:
        out = "-"

    return RunConfig(
        command=command,
        n_modes=n,
        epsilon=epsilon,
        time=time,
        sweep=sweep_spec,
        output_path=out,
        format=fmt,
        frame=_FRAMES[frame_name],
        n_max=n_max,
        dump_state=dump_state,
        seed=seed,
        si=si,
    )


def _rounded(value):
    if isinstance(value, float):
        return round12(value)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _report_to_csv(report: dict) -> str:
    lines = [f"# schema_version={report['schema_version']}"]
    lines.append("# config=" + json.dumps(report["config"], sort_keys=True))
    if "rows" in report:
        keys = list(report["rows"][0])
        lines.append(",".join(keys))
        for row in report["rows"]:
            lines.append(",".join(_csv_cell(row[k]) for k in keys))
    if "checks" in report:
        lines.append("check,passed,measured,tolerance,cases")
        for check in report["checks"]:
            lines.append(
                f"{check['name']},{check['passed']},{_csv_cell(check['measured'])},"
                f"{_csv_cell(check['tolerance'])},{check['cases']}"
            )
    scalars = {
        k: v
        for k, v in report.items()
        if k not in ("schema_version", "config", "rows", "checks", "state")
    }
    for key, value in scalars.items():
        lines.append(f"{key},{_csv_cell(value)}")
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


def _emit(report: dict, config: RunConfig) -> None:
    if config.format == "json":
        text = json.dumps(_rounded(report), indent=2) + "\n"
    else:
        text = _report_to_csv(_rounded(report))
    if config.output_path == "-":
        sys.stdout.write(text)
    else:
        Path(config.output_path).write_text(text)


def _embed(psi: StateVector, basis: Basis) -> StateVector:
    """psi on a basis that contains all of psi's basis states."""
    amps = np.zeros(basis.dim, dtype=complex)
    amps[[basis.index[s] for s in psi.basis.states]] = psi.amplitudes
    return StateVector(basis, amps)


def cmd_simulate(config: RunConfig) -> int:
    # Admission still counts the full truncated space, which --dump-state
    # reports, but the evolution runs in the excitation <= 1 sub-basis
    # (N + 2 states): H conserves the excitation number, so the sector
    # holding the initial state is closed under it.
    require_full_dimension(config.n_modes, config.n_max)
    basis = build_basis(config.n_modes, n_max=config.n_max, excitation_cap=1)
    t_star = optimal_time(config.n_modes, config.epsilon)
    if config.time is None:
        t = t_star
    elif config.si:
        t = config.time
    else:
        t = config.time / config.epsilon

    interaction = ModelParams.resonant(
        config.n_modes, config.epsilon, omega=LAB_OMEGA, frame=Frame.INTERACTION
    )
    evolving = ModelParams.resonant(
        config.n_modes, config.epsilon, omega=LAB_OMEGA, frame=config.frame
    )
    closed = evolve_closed_form(interaction, t, basis)
    H = build_hamiltonian(evolving, basis)
    numeric = propagate_numeric(H, initial_state(basis), t)

    if config.frame is Frame.INTERACTION:
        gap = float(np.max(np.abs(closed.amplitudes - numeric.amplitudes)))
    else:
        # frame rotation shifts phases; moduli are the invariant quantities
        gap = float(np.max(np.abs(np.abs(closed.amplitudes) - np.abs(numeric.amplitudes))))

    # the W target has the atom in its ground state, so the overlap with it
    # is also the success probability
    f = fidelity(w_state(config.n_modes, basis), numeric)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "t": t,
        "t_star": t_star,
        "fidelity_W": f,
        "success_prob": f,
        "atom_ground_prob": atom_population(numeric, AtomLevel.GROUND),
        "closed_vs_numeric_gap": gap,
    }
    if config.dump_state:
        full = build_basis(config.n_modes, n_max=config.n_max)
        report["state"] = state_to_dict(_embed(numeric, full))
    _emit(report, config)
    return 0


def _sidecar_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".meta.json")
    return Path(str(out) + ".meta.json")


def cmd_sweep(config: RunConfig) -> int:
    spec = config.sweep
    n, eps = config.n_modes, config.epsilon
    if spec.parameter is SweepParameter.TIMING_ERROR:
        result = timing_error_sweep(n, eps, spec)
    elif spec.parameter is SweepParameter.COUPLING_DISORDER:
        result = coupling_disorder_sweep(n, eps, spec)
    elif spec.parameter is SweepParameter.DETUNING:
        result = detuning_sweep(n, eps, spec)
    else:
        result = mode_count_sweep(eps, spec)
    result.metadata["config"] = json.dumps(config.echo(), sort_keys=True)

    out = Path(config.output_path)
    written: list[Path] = []
    try:
        if config.format == "csv":
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


def cmd_entanglement(config: RunConfig) -> int:
    n = config.n_modes
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
        "config": config.echo(),
        "n": n,
        "rows": rows,
    }
    _emit(report, config)
    return 0


def cmd_validate(config: RunConfig, inject_fault: bool) -> int:
    report = run_validation(seed=config.seed, inject_fault=inject_fault)
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
    if config.output_path != "-":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": config.echo(),
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if config.command == "simulate":
            return cmd_simulate(config)
        if config.command == "sweep":
            return cmd_sweep(config)
        if config.command == "entanglement":
            return cmd_entanglement(config)
        return cmd_validate(config, bool(getattr(args, "inject_fault", None)))
    except PropagationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
