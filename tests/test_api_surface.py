"""Public API surface checks: importability, __all__ hygiene, docstrings.

A downstream user must be able to reach every advertised name from the
package namespaces, and every public module/class/function must be
documented.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.graph",
    "repro.network",
    "repro.workloads",
    "repro.simulator",
    "repro.traces",
    "repro.core",
    "repro.obs",
]


def iter_all_modules():
    names = ["repro", "repro.stats", "repro.cli"]
    for pkg_name in SUBPACKAGES:
        names.append(pkg_name)
        pkg = importlib.import_module(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__):
            names.append(f"{pkg_name}.{info.name}")
    return names


class TestImports:
    @pytest.mark.parametrize("module_name", iter_all_modules())
    def test_module_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("pkg_name", SUBPACKAGES)
    def test_all_names_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert hasattr(pkg, "__all__") and pkg.__all__
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name}"

    @pytest.mark.parametrize("pkg_name", SUBPACKAGES)
    def test_no_duplicate_all_entries(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert len(pkg.__all__) == len(set(pkg.__all__))


class TestDocstrings:
    @pytest.mark.parametrize("module_name", iter_all_modules())
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), f"{module_name} undocumented"

    @pytest.mark.parametrize("pkg_name", SUBPACKAGES)
    def test_public_objects_documented(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        undocumented = []
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for mname, member in inspect.getmembers(obj):
                        if mname.startswith("_") or not (
                            inspect.isfunction(member) or isinstance(member, property)
                        ):
                            continue
                        doc = (
                            member.fget.__doc__
                            if isinstance(member, property)
                            else member.__doc__
                        )
                        if not (doc and doc.strip()):
                            undocumented.append(f"{name}.{mname}")
        assert not undocumented, f"undocumented public API: {undocumented}"


class TestPackageMetadata:
    def test_package_docstring(self):
        assert repro.__doc__

    def test_cli_entrypoint_exists(self):
        from repro.cli import main

        assert callable(main)


    def test_imports_without_numpy(self):
        """The CLI and the analytics it loads need only the standard library."""
        code = (
            "import sys, repro.cli, repro.core.metrics; "
            "sys.exit('numpy' in sys.modules)"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=False)
        assert done.returncode == 0, "importing repro.cli pulled in numpy"
