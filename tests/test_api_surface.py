import importlib
import pkgutil
import subprocess
import sys

import pytest

import corridor_cov

RETIRED = (
    "EmptyNetworkError",
    "NetworkRealization",
    "SirSample",
    "associate",
    "sample_network",
    "sir_sample",
)

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(corridor_cov.__path__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"corridor_cov.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_root_imports_cleanly():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import corridor_cov"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    from corridor_cov import simulator

    assert not hasattr(corridor_cov, name)
    assert not hasattr(simulator, name)
    assert name not in simulator.__all__
