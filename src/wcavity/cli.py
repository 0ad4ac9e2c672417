"""Command-line interface: simulate, sweep, entanglement, validate.

Exit codes: 0 success, 1 validation-suite failure, 2 bad input (a usage
error too, and an input outside the size or range rule of its route,
kept by the library in ``sector``, which ``simulate`` and
``entanglement`` call before any work, and in ``protocol.require_grid``,
which a sweep calls), printed as one ``error:`` line, 3 numerical
failure.  Times are in units of 1/epsilon; every evolution runs in the
interaction frame, on resonance unless a sweep detunes it.  This module
alone writes bytes, all through ``_write``: it holds the schema version,
the 12-digit number format and the one layout of every command's report,
``{"schema_version", "config", <results>}``, whose results are scalars
(numbers) and tables (lists of NamedTuple rows), while the library
returns plain values.  It names no sweep parameter but the default: the
one table of them is ``protocol.SWEEPS``, which only ``sweep`` loads.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
import types
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple, NoReturn

# Only the modules every subcommand needs are imported here: a fresh
# process pays for what its subcommand runs.  Every subcommand runs on
# `sector`; the sweeps add `protocol`, the sweep that draws trials and
# `validate` add `normals`, and `validate` adds `validation`.  All of them
# need the standard library alone.
from . import sector
from .sector import DEFAULT_SEED, PropagationError, optimal_time

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
    boolean option is a bare flag.  ``choices()``, called only by a command
    reading the option, lists its values.  ``valid`` and ``requirement``
    state the check that every resolved value other than None must pass."""

    parse: Callable[[str], object]
    default: object = None
    help: str | None = None
    choices: Callable[[], Sequence[str]] | None = None
    valid: Callable[[object], bool] | None = None
    requirement: str = ""


def _sweeps() -> dict:
    from . import protocol  # here: of the commands, only sweep reads --parameter
    return protocol.SWEEPS


# every option, in the order the resolved config is echoed; the sweep
# parameters, and the options each never reads, are ``protocol.SWEEPS``'s
OPTIONS = {
    "n": Option(int, 3, "number of modes", valid=lambda v: v >= 1, requirement="must be >= 1"),
    "epsilon": Option(float, 1.0, "coupling strength",
                      valid=lambda v: math.isfinite(v) and v > 0,
                      requirement="must be finite and > 0"),
    "time": Option(float, None, "interaction time in 1/epsilon units (default: optimal)",
                   valid=math.isfinite, requirement="must be finite"),
    "out": Option(str, None, "output path, '-' for stdout", valid=bool,
                  requirement="must not be empty"),
    "format": Option(str, "json", "report format", choices=lambda: ("csv", "json")),
    "seed": Option(int, 0, "seed of the random draws", valid=lambda v: v >= 0,
                   requirement="must be >= 0"),
    "dump_state": Option(_parse_bool, False,
                         "include the state vector, on the N + 2 state sector, in the report"),
    "parameter": Option(str, "timing-error", "swept quantity", choices=lambda: sorted(_sweeps())),
    "grid": Option(float_list, None, "comma-separated grid values"),
    "trials": Option(int, 100, "Monte-Carlo trials per grid point",
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
        types.MappingProxyType({"format": "csv"}),
    ),
    "entanglement": Command(
        "pairwise concurrences of W versus GHZ reductions", frozenset({"n", "out", "format"})
    ),
    "validate": Command(
        "run the invariant self-check suite",
        frozenset({"out", "format", "seed"}),
        types.MappingProxyType({"seed": DEFAULT_SEED}),
    ),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help(name: str | None = None) -> str:
    """The help text of ``wcavity``, which lists the commands, or of
    command ``name``, which lists its flags.  Each option's help ends with
    the command's default, unless that is None or a bool."""
    if name is None:
        usage, about = "<command>", "Single-atom multi-cavity W-state preparation simulator."
        heading, rows = "commands", [(command, spec.help) for command, spec in COMMANDS.items()]
        rows.append(("<command> --help", "list the flags of a command"))
    else:
        spec = COMMANDS[name]
        usage, about, heading, rows = name, spec.help, "flags", []
        for key, option in OPTIONS.items():
            if key not in spec.options:
                continue
            default = spec.defaults.get(key, option.default)
            text = option.help + (f": {', '.join(option.choices())}" if option.choices else "")
            if default is not None and not isinstance(default, bool):
                text = f"{text} (default {default})"
            value = "" if option.parse is _parse_bool else " " + key.upper()
            rows.append((_flag(key) + value, text))
        rows += [("--config CONFIG", "flat key=value config file; flags override"),
                 ("-h, --help", "show this help and exit")]
    width = max(len(left) for left, _ in rows)
    return "\n".join([f"usage: wcavity {usage} [--flag value ...]", "", about, "", f"{heading}:",
                      *(f"  {left:{width}}  {text}" for left, text in rows)]) + "\n"


def _asks_help(token: str) -> bool:
    """Whether ``token`` is ``-h`` or ``--help``; ValueError for ``--help=1``."""
    flag, eq, value = token.partition("=")
    if eq and flag in ("-h", "--help"):
        raise ValueError(f"--help: takes no value, got {value!r}")
    return flag in ("-h", "--help")


def read_config(argv=None) -> dict | str:
    """The config that ``argv`` (``sys.argv[1:]`` by default) gives, or the
    help text that ``-h`` or ``--help`` in a flag position asks for.
    ``argv`` is ``<command> (--flag value | --flag=value | --bool-flag)*``
    with the command's exact flags, each value read by its ``Option.parse``
    as its token is read; the last of a repeated flag counts.
    ``--flag=value`` is read as given, and a separate value is the next
    token unless it starts with ``--``.  The config holds the command and
    the value of each option it reads, in ``OPTIONS`` order: the flag if
    given, else the ``--config`` file's value, else the command's default,
    else the option's; a sweep's grid is the tuple of floats given, or None
    for the default grid.  Every config-file value is parsed and checked, a
    value a flag overrides too; a refused one is named by its file line.
    Any other argv raises ValueError naming the token, a value ``parse``
    refuses as ``--n: <reason>``.  The inputs of a route are its own to
    admit: the reader runs none."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and _asks_help(argv[0]):
        return _help()
    if not argv or argv[0] not in COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ValueError(f"{given}: expected one of {', '.join(COMMANDS)}")
    name, command = argv[0], COMMANDS[argv[0]]
    flags = {_flag(k): (k, OPTIONS[k].parse) for k in OPTIONS if k in command.options}
    flags["--config"] = ("config", str)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if _asks_help(token):
            return _help(name)
        flag, eq, value = token.partition("=")
        key, parse = flags.get(flag, (None, None))
        if key is None:
            raise ValueError(f"{name} reads no flag {flag!r}")
        if parse is _parse_bool:  # a bare flag
            if eq:
                raise ValueError(f"{flag}: takes no value, got {value!r}")
            values[key] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{flag}: expected a value")
        try:
            values[key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None

    path = values.pop("config", None)
    if path == "":
        raise ValueError("--config must not be empty")
    file_values = {} if path is None else _load_config_file(path)
    unknown = set(file_values) - command.options
    if unknown:
        lineno = min(file_values[key][0] for key in unknown)
        raise ValueError(f"{path}:{lineno}: unknown config file keys: {sorted(unknown)}")

    config = {"command": name}
    # each option given, and how a refusal of it begins: "" for a flag, its
    # file line for a config-file value
    given = {}
    for key, option in OPTIONS.items():
        if key not in command.options:
            continue
        value = values.get(key)
        if key in file_values:
            lineno, text = file_values[key]
            where = f"{path}:{lineno}: key {key!r}: "
            try:
                file_value = option.parse(text)
                _require_valid(key, option, file_value)
            except ValueError as exc:
                raise ValueError(f"{where}{exc}") from None
            if value is None:
                value, given[key] = file_value, where
        if value is not None and key not in given:
            _require_valid(key, option, value)
            given[key] = ""
        config[key] = command.defaults.get(key, option.default) if value is None else value

    if config["out"] is None:
        if name == "sweep":
            raise ValueError("sweep requires --out")
        config["out"] = "-"
    if name == "validate" and "format" in given and config["out"] == "-":
        raise ValueError(f"{given['format']}--format sets the format of validate's --out "
                         "file, and there is none: validate prints its text lines")
    if name == "sweep":
        parameter = config["parameter"]
        for key, reason in _sweeps()[parameter]["unread"].items():
            if key in given:
                raise ValueError(f"{given[key]}{_flag(key)} is not read by --parameter "
                                 f"{parameter} ({reason})")
            del config[key]
    return config


def _load_config_file(path: str) -> dict:
    """Each key of a flat ``key = value`` UTF-8 file, with or without a
    byte-order mark (``-`` spelled ``_``), and its (line number, value); a
    key set on two lines is refused."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    if option.choices is not None and value not in option.choices():
        raise ValueError(f"unknown {key} {value!r}")
    if option.valid is not None and not option.valid(value):
        raise ValueError(f"{_flag(key)} {option.requirement}")


#: Version of the report layout.
SCHEMA_VERSION = "4"


def fmt12(value) -> str:
    """Fixed 12-significant-digit decimal rendering for stable diffs."""
    return f"{float(value):.12g}"


def round12(value: float) -> float:
    return float(fmt12(value))


def _rounded(value):
    """``value`` as a JSON report writes it: each float rounded to 12
    digits, and each row (a NamedTuple) the dict of its fields."""
    if isinstance(value, float):
        return round12(value)
    if hasattr(value, "_fields"):
        return {k: _rounded(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _report_lines(config: dict, results: dict):
    """The report of every command, ``{"schema_version", "config",
    **results}``, in ``config``'s format, one newline-terminated line at a
    time.  Each result is a scalar (a number) or a table (a list of
    NamedTuple rows).  ``config`` is written exactly as given and the
    results with 12 digits.  As JSON it is one indented object.  As CSV it
    is the two ``# `` lines of the schema version and the config, then one
    ``key,value`` line per scalar, then each table under a header of its
    fields; the rows are made as they are written, so that no copy of a
    long table's text is held."""
    if config["format"] == "json":
        rounded = {key: _rounded(value) for key, value in results.items()}
        yield json.dumps({"schema_version": SCHEMA_VERSION, "config": config, **rounded},
                         indent=2) + "\n"
        return
    yield f"# schema_version={SCHEMA_VERSION}\n"
    yield f"# config={json.dumps(config, sort_keys=True)}\n"
    for key, value in results.items():
        if not isinstance(value, list):
            yield f"{key},{_csv_cell(value)}\n"
    for table in (v for v in results.values() if isinstance(v, list)):
        yield ",".join(table[0]._fields) + "\n"
        for row in table:
            yield ",".join(map(_csv_cell, row)) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return fmt12(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _write(outputs) -> None:
    """Write each (target, lines) of ``outputs`` by one ``writelines``; a
    target of ``-`` is stdout, flushed here, any other a UTF-8 file.  If a
    write fails, remove the files this call created, and only those: a
    path that existed before is kept.  After a failed write to stdout, fd 1
    points at the null device, so that the interpreter's own flush at exit
    cannot fail again on the text still buffered."""
    created = []
    try:
        for target, lines in outputs:
            if target == "-":
                try:
                    sys.stdout.writelines(lines)
                    sys.stdout.flush()
                except OSError:
                    null = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(null, sys.stdout.fileno())
                    os.close(null)
                    raise
                continue
            try:
                handle = open(target, "x", encoding="utf-8")
                created.append(target)
            except FileExistsError:
                handle = open(target, "w", encoding="utf-8")
            with handle:
                handle.writelines(lines)
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise


def _emit(config: dict, results: dict) -> None:
    _write([(config["out"], _report_lines(config, results))])


class AmplitudeRow(NamedTuple):
    """One amplitude of ``simulate --dump-state``: its index in the order
    ``fock.build_basis(N)`` enumerates the N + 2 sector states, and its
    real and imaginary parts."""

    amplitude_index: int
    re: float
    im: float


def cmd_simulate(config: dict) -> int:
    # The evolution runs in the excitation <= 1 sector (N + 2 states): H
    # conserves the excitation number, so the sector holding the initial
    # state is closed under it.  The gap and --dump-state read its amplitudes.
    n, eps = config["n"], config["epsilon"]
    # admitted first: N, then t* (with --time too), then the --time angle;
    # one point of N + 2 <= 1024 amplitudes is never refused by size
    sector.require_modes(n, f"--n {n}")
    t = optimal_time(n, eps)
    mode = sector.bright_mode((eps,) * n)
    if config["time"] is not None:  # simulate evolves to t = time / epsilon
        t = config["time"] / eps
        sector.require_angles(mode, eps, [(config["time"], (t, 0.0))], "--time")

    closed = sector.amplitudes(mode, sector.closed_form(mode, t))
    (pair,) = sector.evolve(mode, ((t, 0.0),))
    numeric = sector.amplitudes(mode, pair)

    # the W target has the atom in its ground state, so the overlap with it
    # is also the success probability and the atom's ground population
    results = {
        "t": t,
        "fidelity_W": sector.w_fidelity(pair, mode),
        "closed_vs_numeric_gap": max(abs(a - b) for a, b in zip(closed, numeric)),
    }
    if config["dump_state"]:
        results["amplitudes"] = [AmplitudeRow(k, a.real, a.imag) for k, a in enumerate(numeric)]
    _emit(config, results)
    return 0


def cmd_sweep(config: dict) -> int:
    from . import protocol

    # looked up on the module at the call, where a tracer may have wrapped
    # it; read_config left of these options exactly the ones it reads, and
    # the sweep admits them
    sweep = getattr(protocol, config["parameter"].replace("-", "_") + "_sweep")
    rows = sweep(**{k: config[k] for k in ("n", "epsilon", "grid", "trials", "seed")
                    if k in config})
    # the admitted grid (the default for None) from the rows; no local keeps the given one
    config["grid"] = tuple(row.x for row in rows)
    lines = _report_lines(config, {"rows": rows})
    out = Path(config["out"])
    if config["format"] == "json" or config["out"] == "-" or (out.exists() and not out.is_file()):
        # one file, or stdout, a device or a FIFO: no sidecar
        _write([(config["out"], lines)])
    else:
        # the sidecar holds what a rerun does not reproduce
        sidecar = out.with_suffix(".meta.json") if out.suffix == ".csv" else f"{out}.meta.json"
        stamp = {"schema_version": SCHEMA_VERSION,
                 "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())}
        _write([(out, lines), (sidecar, [json.dumps(stamp, indent=2) + "\n"])])
    return 0


class PairRow(NamedTuple):
    """One mode pair of ``entanglement``: the modes (1-based) and the
    pair's concurrence in W and in GHZ."""

    pair: tuple[int, int]
    concurrence_w: float
    concurrence_ghz: float


def cmd_entanglement(config: dict) -> int:
    n = config["n"]
    if n < 2:
        raise ValueError("entanglement comparison needs --n >= 2")
    sector.require_modes(n, f"--n {n}")
    sector.require_amplitudes("entanglement", n, n * (n - 1) // 2)  # one point per mode pair
    # both states are reduced from the N + 2 amplitudes they occupy
    c_w = sector.pairwise_concurrences(sector.w_support(n))
    c_ghz = sector.pairwise_concurrences(sector.ghz_support(n))
    _emit(config, {"rows": [PairRow(pair, c_w[pair], c_ghz[pair]) for pair in c_w]})
    return 0


def cmd_validate(config: dict) -> int:
    from .validation import run_validation

    checks = run_validation(seed=config["seed"])
    passed = sum(check.passed for check in checks)
    lines = [f"{'PASS' if check.passed else 'FAIL'} {check.name}: "
             f"measured={check.measured:.3e} tolerance={check.tolerance:g} "
             f"cases={check.cases}\n" for check in checks]
    lines.append(f"summary: checks_run={len(checks)} passed={passed} "
                 f"failed={len(checks) - passed}\n")
    _write([("-", lines)])
    if config["out"] != "-":
        _emit(config, {"checks": list(checks)})
    return 0 if passed == len(checks) else 1


def main(argv=None) -> int:
    try:
        config = read_config(argv)
        if isinstance(config, str):  # the help text
            _write([("-", [config])])
            return 0
        command = {"simulate": cmd_simulate, "sweep": cmd_sweep,
                   "entanglement": cmd_entanglement, "validate": cmd_validate}[config["command"]]
        return command(config)
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
    interpreter shutdown skip: about 12k objects once a command has run,
    3-4 ms per collection on a 2-core host.  Exit is otherwise unchanged:
    atexit handlers run and open files are flushed and closed.  ``main``
    itself never freezes, because tests and library callers run it in a
    process that goes on."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
