"""Properties of the installed package as a whole."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import beliefgraph
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
