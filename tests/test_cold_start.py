"""What the package costs a fresh process: no class is a dataclass (whose
methods are generated and compiled at import time), importing the CLI
loads neither `dataclasses` nor `hashlib`, and no CLI command loads
`hashlib` or `_hashlib`, which maps OpenSSL's libcrypto: the registry
tag is hashed by CPython's built-in SHA-256."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import quadforge


def test_no_quadforge_class_is_a_dataclass():
    names = [
        m.name
        for m in pkgutil.iter_modules(quadforge.__path__, "quadforge.")
        if m.name != "quadforge.__main__"  # importing it runs the CLI
    ]
    assert "quadforge.classify" in names
    found = [
        f"{module.__name__}.{name}"
        for module in map(importlib.import_module, names)
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and hasattr(cls, "__dataclass_fields__")
    ]
    assert found == []


def test_importing_the_cli_adds_neither_dataclasses_nor_hashlib():
    # measured against what numpy, argparse and json load themselves
    src = os.path.dirname(os.path.dirname(quadforge.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy, argparse, json; "
        "before = set(sys.modules); import quadforge.cli; "
        "print(sorted(m for m in ('dataclasses', 'hashlib') if m in set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_cli_command_loads_hashlib(tmp_path):
    src = os.path.dirname(os.path.dirname(quadforge.__file__))
    commands = [
        ["verify", "--lemma", "theorem", "--qmax", "100"],
        ["build-w2"],
        ["verify", "--lemma", "case3-case8", "--range", "4..1000"],
        ["export"],
        ["tables"],
    ]
    runs = [argv + ["--out", str(tmp_path / f"{k}.out")] for k, argv in enumerate(commands)]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from quadforge.cli import main; "
        f"codes = [main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] []"
    assert all((tmp_path / f"{k}.out").stat().st_size for k in range(len(commands)))
