"""Command-line interface: simulate, sweep, entanglement, validate.

Exit codes: 0 success, 1 validation-suite failure, 2 bad input (also an
input outside the size or range rule of its route, kept by the library
in ``sector`` and, run by the sweep alone, ``protocol.require_grid``), 3
numerical failure.  Times are in units of 1/epsilon; every evolution runs
in the interaction frame, on resonance but in the detuning sweep.  Every
output goes through ``_write``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import types
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import NamedTuple, NoReturn

# Only the modules every subcommand needs are imported here: a fresh
# process pays for what its subcommand runs.  `simulate`, `entanglement`
# and all four sweeps run on `sector` (the coupling-disorder sweep also on
# `normals`), which need the standard library alone, so numpy, an optional
# extra, is imported on the `validate` path only.
from . import sector
from .sector import (
    DEFAULT_SEED,
    SCHEMA_VERSION,
    SWEEP_PARAMETERS,
    PropagationError,
    fmt12,
    optimal_time,
    round12,
)

def float_list(text: str) -> tuple[float, ...]:
    """The comma-separated floats of ``text``; blank entries are skipped."""
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


class Option(NamedTuple):
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
    "out": Option(str, None, "output path, '-' for stdout"),
    "format": Option(str, "json", choices=("csv", "json")),
    "seed": Option(int, 0, valid=lambda v: v >= 0, requirement="must be >= 0"),
    "dump_state": Option(_parse_bool, False,
                         "include the state vector, on the N + 2 state sector, in the report"),
    "parameter": Option(str, "timing-error", "swept quantity (default timing-error)",
                        choices=tuple(sorted(SWEEP_PARAMETERS))),
    "grid": Option(float_list, None, "comma-separated grid values"),
    "trials": Option(int, None, "Monte-Carlo trials per grid point (default 100)",
                     valid=lambda v: v >= 1, requirement="must be >= 1"),
}


class Command(NamedTuple):
    """A subcommand and the options it reads; it accepts no others.
    ``defaults`` overrides the default of some of those options."""

    help: str
    options: frozenset[str]
    defaults: Mapping[str, object] = types.MappingProxyType({})


COMMANDS = {
    "simulate": Command(
        "evolve once and score against the W target",
        frozenset({"n", "epsilon", "time", "out", "format", "dump_state"}),
    ),
    "sweep": Command(
        "robustness sweep over a parameter grid",
        frozenset({"n", "epsilon", "out", "format", "seed", "parameter", "grid", "trials"}),
        {"format": "csv", "trials": 100},
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

# The sweep options a --parameter never reads, each with the reason, in
# ``OPTIONS`` order: refused if given and absent otherwise, so that no
# output tells of a value the sweep did not use.
_DRAWS_NOTHING = dict.fromkeys(("seed", "trials"), "only coupling-disorder draws random trials")
SWEEP_UNREAD = {
    "timing-error": _DRAWS_NOTHING,
    "coupling-disorder": {},
    "detuning": _DRAWS_NOTHING,
    "mode-count": {"n": "its grid lists the mode counts", **_DRAWS_NOTHING},
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
    """Each key of a flat ``key = value`` file (``-`` spelled ``_``) and
    its (line number, value); a key set on two lines is refused."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} is set again "
                             f"(first on line {values[key][0]})")
        values[key] = (lineno, value.strip())
    return values


def _require_valid(key: str, option: Option, value) -> None:
    if option.choices is not None and value not in option.choices:
        raise ValueError(f"unknown {key} {value!r}")
    if option.valid is not None and not option.valid(value):
        raise ValueError(f"{_flag(key)} {option.requirement}")


def resolve_config(args) -> dict:
    """The command and the value of each option it reads, in ``OPTIONS``
    order: the flag if given, else the config-file value, else the
    command's default, else the option's; a sweep's grid is the tuple of
    floats given, or None for the default grid.  Every config-file value
    is parsed and checked, a value a flag overrides too; a refused one is
    named by its file line.  Refuses, before any work, an input of
    ``simulate`` or ``entanglement`` outside the size or range rule of its
    route, by ``sector``'s checks of N, the amplitude count, t* and the
    --time angle.  A sweep's grid and sizes are left to the sweep, whose
    ``protocol.require_grid`` refuses them before any work."""
    command = COMMANDS[args.command]
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - command.options
    if unknown:
        lineno = min(file_values[key][0] for key in unknown)
        raise ValueError(f"{args.config}:{lineno}: unknown config file keys: {sorted(unknown)}")

    config = {"command": args.command}
    given = set()  # options set by a flag or the config file
    for key, option in OPTIONS.items():
        if key not in command.options:
            continue
        value = getattr(args, key)
        if key in file_values:
            lineno, text = file_values[key]
            try:
                file_value = option.parse(text)
                if value is not None:  # the flag overrides it
                    _require_valid(key, option, file_value)
            except ValueError as exc:
                raise ValueError(f"{args.config}:{lineno}: key {key!r}: {exc}") from None
            if value is None:
                value = file_value
        if value is not None:
            given.add(key)
        else:
            value = command.defaults.get(key, option.default)
        if value is not None:
            _require_valid(key, option, value)
        config[key] = value

    if config["out"] is None:
        if args.command == "sweep":
            raise ValueError("sweep requires --out")
        config["out"] = "-"
    if args.command == "entanglement" and config["n"] < 2:
        raise ValueError("entanglement comparison needs --n >= 2")
    if args.command == "validate":
        return config
    if args.command == "sweep":
        parameter = config["parameter"]
        for key, reason in SWEEP_UNREAD[parameter].items():
            if key in given:
                raise ValueError(f"{_flag(key)} is not read by --parameter {parameter} "
                                 f"({reason})")
            del config[key]
        return config
    n = config["n"]
    sector.require_modes(n, f"--n {n}")
    # simulate evolves one point, entanglement scores one per mode pair
    points = n * (n - 1) // 2 if args.command == "entanglement" else 1
    sector.require_amplitudes(args.command, n, points)
    if args.command == "simulate":
        eps, time = config["epsilon"], config["time"]
        optimal_time(n, eps)
        if time is not None:  # simulate evolves to t = time / epsilon
            sector.require_angles(n, eps, [(time, (time / eps, 0.0))], "--time")
    return config


def _echo(config: dict) -> dict:
    """The resolved config as reports embed it; a sweep's parameter, grid
    and, where it reads them, trials and seed are grouped under ``sweep``
    and nowhere else."""
    if config["command"] != "sweep":
        return dict(config)
    grouped = ("parameter", "grid", "trials", "seed")
    echo = {k: v for k, v in config.items() if k not in grouped}
    echo["sweep"] = {"parameter": config["parameter"], "grid": list(config["grid"])}
    echo["sweep"].update((k, config[k]) for k in ("trials", "seed") if k in config)
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


def _write(outputs) -> None:
    """Write each (target, lines) of ``outputs`` by one ``writelines``; a
    target of ``-`` is stdout.  If a write fails, remove the files this
    call created, and only those: a path that existed before is kept."""
    created = []
    try:
        for target, lines in outputs:
            if target == "-":
                sys.stdout.writelines(lines)
                continue
            try:
                handle = open(target, "x")
                created.append(target)
            except FileExistsError:
                handle = open(target, "w")
            with handle:
                handle.writelines(lines)
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise


def _json_lines(value):
    # lazy, so that a sidecar's text is made only after its CSV is written
    yield json.dumps(_rounded(value), indent=2) + "\n"


def _emit(report: dict, config: dict) -> None:
    csv = config["format"] == "csv"
    lines = [_report_to_csv(_rounded(report))] if csv else _json_lines(report)
    _write([(config["out"], lines)])


def cmd_simulate(config: dict) -> int:
    # The evolution runs in the excitation <= 1 sector (N + 2 states): H
    # conserves the excitation number, so the sector holding the initial
    # state is closed under it.  The gap and --dump-state read its amplitudes.
    n, eps = config["n"], config["epsilon"]
    t_star = optimal_time(n, eps)
    t = t_star if config["time"] is None else config["time"] / eps

    couplings = (eps,) * n
    closed = sector.amplitudes(couplings, sector.closed_form(couplings, t))
    (pair,) = sector.evolve(couplings, ((t, 0.0),))
    numeric = sector.amplitudes(couplings, pair)

    # the W target has the atom in its ground state, so the overlap with it
    # is also the success probability and the atom's ground population
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": _echo(config),
        "t": t,
        "t_star": t_star,
        "fidelity_W": sector.w_fidelity(pair, sector.w_overlap(couplings)),
        "closed_vs_numeric_gap": max(abs(a - b) for a, b in zip(closed, numeric)),
    }
    if config["dump_state"]:
        report["state"] = {
            "basis": {"n_modes": n, "n_max": 1, "excitation_cap": 1},
            "amplitudes": [[a.real, a.imag] for a in numeric],
        }
    _emit(report, config)
    return 0


def cmd_sweep(config: dict) -> int:
    # looked up on the module at the call, where a tracer may have wrapped it
    from . import protocol

    parameter, eps, n = config["parameter"], config["epsilon"], config.get("n")
    if parameter == "timing-error":
        result = protocol.timing_error_sweep(n, eps, config["grid"])
    elif parameter == "coupling-disorder":
        result = protocol.coupling_disorder_sweep(n, eps, config["grid"], config["trials"],
                                                  config["seed"])
    elif parameter == "detuning":
        result = protocol.detuning_sweep(n, eps, config["grid"])
    else:
        result = protocol.mode_count_sweep(eps, config["grid"])
    # the admitted grid (the default for None) from the rows; no local keeps the given one
    config["grid"] = tuple(row.x for row in result.rows)
    result.metadata["config"] = json.dumps(_echo(config), sort_keys=True)

    if config["format"] == "json":
        _emit(result.to_dict(), config)
    elif config["out"] == "-":
        # no sidecar: the CSV comment lines already carry the metadata
        _write([("-", result.csv_lines())])
    else:
        out = Path(config["out"])
        sidecar = out.with_suffix(".meta.json") if out.suffix == ".csv" else f"{out}.meta.json"
        _write([(out, result.csv_lines()), (sidecar, _json_lines(result.metadata))])
    return 0


def cmd_entanglement(config: dict) -> int:
    n = config["n"]
    # both states are reduced from the N + 2 amplitudes they occupy
    c_w = sector.pairwise_concurrences(sector.w_support(n))
    c_ghz = sector.pairwise_concurrences(sector.ghz_support(n))
    rows = [
        {
            "pair": [i, j],
            "concurrence_w": c_w[i, j],
            "concurrence_ghz": c_ghz[i, j],
        }
        for i, j in c_w
    ]
    _emit({"schema_version": SCHEMA_VERSION, "config": _echo(config), "rows": rows}, config)
    return 0


def cmd_validate(config: dict, inject_fault: bool) -> int:
    try:
        from .validation import run_validation
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        # the checks run the dense numpy oracle, which the runtime leaves out
        raise ValueError("validate needs numpy: install wcavity[oracle]") from None

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
            "checks": [c._asdict() for c in report.checks],
            "summary": {key: getattr(report, key) for key in ("checks_run", "passed", "failed")},
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


def run() -> NoReturn:
    """The process entry of ``python -m wcavity`` and the ``wcavity``
    script: ``main`` on ``sys.argv``, then exit with its code.

    After ``main`` returns, ``gc.freeze`` moves every live object into the
    collector's permanent generation, which the full collections of
    interpreter shutdown skip: about 22k objects once numpy and the
    package are loaded (``validate``), 5-8 ms per collection on a 2-core
    host.  Exit is otherwise unchanged: atexit handlers run and open
    files are flushed and closed.  ``main`` itself never freezes, because tests and library callers run
    it in a process that goes on."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
