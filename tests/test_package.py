"""Properties of the installed package as a whole."""

import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import beliefgraph
from beliefgraph.cli import main
from beliefgraph.harness import ExperimentConfig


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency; importing the package
    pulls in no scipy module, which would also cost set-up time."""
    source = str(Path(beliefgraph.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import beliefgraph; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, source],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = [*(f"demos/{p.name}" for p in sorted((ROOT / "demos").glob("*.py"))),
              "README.md"]


def _python_source(name: str) -> str:
    """A demo's source, or the example of README's Python API section."""
    text = (ROOT / name).read_text()
    if name != "README.md":
        return text
    section = text.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("name", DOCUMENTED)
def test_documented_imports_resolve(name):
    """Every name the demos and README's Python API example import from
    beliefgraph exists, so dropping a public name fails here rather than
    in a demo that no test runs."""
    imported = []
    for node in ast.walk(ast.parse(_python_source(name), name)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("beliefgraph"):
                imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.startswith("beliefgraph")]
    assert imported, f"{name} imports nothing from beliefgraph"
    for module, attr in imported:
        loaded = importlib.import_module(module)
        assert attr is None or hasattr(loaded, attr), f"{name}: {module}.{attr}"


def test_readme_schema_lists_every_field_with_its_default():
    """README's configuration schema block is a JSON object of exactly
    the configuration's fields, each with its default."""
    section = (ROOT / "README.md").read_text().split("## Configuration schema", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == ExperimentConfig().to_dict()


def test_readme_python_example_runs_clean(tmp_path):
    """README's Python API example runs with a RuntimeWarning as an
    error and prints a finite deviation, so a renamed result attribute
    fails here and not only for a reader."""
    script = tmp_path / "example.py"
    script.write_text(_python_source("README.md"))
    source = str(Path(beliefgraph.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": source},
    )
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(proc.stdout))


def test_readme_bundle_table_names_every_file_a_run_writes(tmp_path):
    """README's output bundle table names exactly the files a run
    writes: those of a test-mode run of both modes whose graph is
    regenerated once, with NNN its two graph epochs and MODE its two
    modes, and, of a sweep, sweep.csv."""
    section = (ROOT / "README.md").read_text().split("## Output bundle", 1)[1]
    rows = re.findall(r"^\| (.+?) \|", section.split("\n## ", 1)[0], re.M)
    documented = {
        name.replace("NNN", epoch).replace("MODE", mode)
        for row in rows for name in re.findall(r"`([^`]+)`", row)
        for epoch in ("000", "001") for mode in ("known", "estimated")
    }
    config = ["--agents", "6", "--states", "3", "--edge-prob", "0.5",
              "--delta", "0.3", "--mu", "0.05", "--iters", "200"]
    run, grid = tmp_path / "run", tmp_path / "sweep"
    assert main(["experiment", *config, "--mode", "both", "--test-mode",
                 "--regen-graph-at", "120:9", "--out", str(run)]) == 0
    assert main(["sweep", *config, "--mode", "known", "--mu-grid", "0.05",
                 "--out", str(grid)]) == 0
    assert {p.name for p in run.iterdir()} == documented - {"sweep.csv"}
    assert {p.name for p in grid.iterdir()} == {"sweep.csv"}


def _benchmark_targets() -> tuple:
    """``TARGETS`` of ``benchmarks/tracing.py``, read without importing
    the benchmark."""
    path = ROOT / "benchmarks" / "tracing.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module, name", _benchmark_targets())
def test_benchmark_hooks_resolve(module, name):
    """Every function and method the benchmark traces by name still
    exists, so renaming one fails here rather than in a benchmark run."""
    target = importlib.import_module(f"beliefgraph.{module}")
    for part in name.split("."):
        assert hasattr(target, part), f"beliefgraph.{module}.{name}"
        target = getattr(target, part)
    assert callable(target)
