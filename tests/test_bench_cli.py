"""``tools/bench_cli.py`` at one round: the keys of the file it writes.
Needs neither numpy nor the package installed."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_cli_writes_every_row_and_the_environment(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_cli.py"), "--rounds", "1",
                    "--out", str(out)], check=True, timeout=300)
    report = json.loads(out.read_text())
    assert set(report) == {"environment", "rows", "imports"}
    assert set(report["environment"]) == {"nproc", "python", "numpy", "machine", "commit",
                                          "tree_modified", "rounds", "pythondontwritebytecode"}
    assert report["environment"]["rounds"] == 1
    assert list(report["rows"]) == ["python -c pass", "import wcavity.cli", "simulate --n 9",
                                    "entanglement --n 10", "sweep --n 3", "validate"]
    # the import row exits as cli.run does, after gc.freeze()
    assert report["rows"]["import wcavity.cli"]["argv"] == [
        "-c", "import gc, wcavity.cli; gc.freeze()"]
    # validate refuses with 2 where numpy is missing
    numpy = importlib.util.find_spec("numpy") is not None
    for name, row in report["rows"].items():
        assert set(row) == {"argv", "wall_ms", "peak_rss_mib", "exit"}
        assert set(row["wall_ms"]) == {"median", "q1", "q3", "iqr"}
        assert row["wall_ms"]["iqr"] == 0 and row["wall_ms"]["median"] > 0
        assert row["peak_rss_mib"] > 0
        assert row["exit"] == [0 if name != "validate" or numpy else 2], name

    # the import rows of each subcommand: the modules it loads, however
    # imported, and json; validate's oracle modules only where numpy is
    assert list(report["imports"]) == ["simulate --n 9", "entanglement --n 10", "sweep --n 3",
                                       "validate"]
    runtime = {"wcavity", "wcavity.sector", "wcavity.cli", "json"}
    expected = {"sweep --n 3": runtime | {"wcavity.protocol"},
                "validate": runtime | ({"wcavity.normals", "wcavity.fock", "wcavity.dynamics",
                                       "wcavity.validation"} if numpy else set())}
    for name, modules in report["imports"].items():
        assert set(modules) == expected.get(name, runtime), name
        for module, times in modules.items():
            assert set(times) == {"self_us", "cumulative_us"}
            assert 0 <= times["self_us"] <= times["cumulative_us"], (name, module)
