"""Checks that tie the repository's tooling to the package: the traced benchmark's hooks and the runtime imports."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import dstc

ROOT = Path(__file__).resolve().parents[1]


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, loaded without writing its bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_exist_with_the_arguments_read(monkeypatch):
    # the tracer lists a missing hook as absent and runs on, so a rename would silently drop its metrics
    tracing = load_tracing(monkeypatch)
    hooks = {}
    for layer, names in tracing.ENTRY_POINTS.items():
        module = importlib.import_module(f"dstc.{layer}")
        for name in names:
            if "." in name:  # a method the class itself defines, as the tracer looks it up
                cls_name, meth = name.split(".")
                hook = vars(getattr(module, cls_name)).get(meth)
            else:
                hook = getattr(module, name, None)
            assert callable(hook), f"dstc.{layer}.{name} is not a callable"
            hooks[name] = hook
    for name, arg in [(name, size[0]) for name, size in tracing.SIZES.items()] + list(tracing.CAPTURED.items()):
        assert arg in inspect.signature(hooks[name]).parameters, f"{name} has no argument {arg!r}"


def test_runtime_dependencies_are_numpy_only():
    probe = "import sys, dstc, dstc.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    env = dict(os.environ, PYTHONPATH=str(Path(dstc.__file__).resolve().parents[1]))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert "numpy" in loaded.stdout
    for name in ("scipy", "hypothesis", "pytest", "_pytest"):
        assert f"'{name}'" not in loaded.stdout
