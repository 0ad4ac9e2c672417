"""``tools/bench_cli.py`` at one round: the keys of the file it writes,
for this tree alone and beside a baseline tree.  Needs neither numpy nor
the package installed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(tmp_path, *args) -> dict:
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_cli.py"), "--rounds", "1",
                    "--out", str(out), *args], check=True, timeout=300)
    return json.loads(out.read_text())


def check_tree(report):
    """The rows and import rows of one tree: every row exits 0."""
    assert list(report["rows"]) == ["python -c pass", "import wcavity.cli", "simulate --n 9",
                                    "entanglement --n 10", "sweep --n 3", "validate"]
    # the import row exits as cli.run does, after gc.freeze()
    assert report["rows"]["import wcavity.cli"]["argv"] == [
        "-c", "import gc, wcavity.cli; gc.freeze()"]
    for name, row in report["rows"].items():
        assert set(row) == {"argv", "wall_ms", "peak_rss_mib", "exit"}
        assert set(row["wall_ms"]) == {"median", "q1", "q3", "iqr"}
        assert row["wall_ms"]["iqr"] == 0 and row["wall_ms"]["median"] > 0
        assert row["peak_rss_mib"] > 0
        assert row["exit"] == [0], name

    # the import rows of each subcommand: the modules it loads, however
    # imported, and json
    assert list(report["imports"]) == ["simulate --n 9", "entanglement --n 10", "sweep --n 3",
                                       "validate"]
    runtime = {"wcavity", "wcavity.sector", "wcavity.cli", "json"}
    expected = {"sweep --n 3": runtime | {"wcavity.protocol"},
                "validate": runtime | {"wcavity.normals", "wcavity.validation"}}
    for name, modules in report["imports"].items():
        assert set(modules) == expected.get(name, runtime), name
        for module, times in modules.items():
            assert set(times) == {"self_us", "cumulative_us"}
            assert 0 <= times["self_us"] <= times["cumulative_us"], (name, module)


def test_bench_cli_writes_every_row_and_the_environment(tmp_path):
    report = bench(tmp_path)
    assert set(report) == {"environment", "rows", "imports"}
    assert set(report["environment"]) == {"nproc", "python", "numpy", "machine", "commit",
                                          "tree_modified", "rounds", "pythondontwritebytecode"}
    assert report["environment"]["rounds"] == 1
    check_tree(report)


def test_bench_cli_measures_a_baseline_tree_in_the_same_rounds(tmp_path):
    """A copy of this tree's src, outside any checkout, as the baseline:
    both trees' rows and import rows, and no commit for the copy."""
    shutil.copytree(ROOT / "src" / "wcavity", tmp_path / "old" / "src" / "wcavity",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = bench(tmp_path, "--baseline", str(tmp_path / "old" / "src"))
    assert set(report) == {"environment", "rows", "imports", "baseline"}
    assert set(report["baseline"]) == {"commit", "tree_modified", "rows", "imports"}
    assert report["baseline"]["commit"] is None
    check_tree(report)
    check_tree(report["baseline"])


def test_bench_cli_refuses_a_baseline_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_cli.py"),
                           "--baseline", str(tmp_path), "--out", str(tmp_path / "b.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "holds no wcavity package" in proc.stderr
    assert not (tmp_path / "b.json").exists()
