import importlib.util
import runpy
import shutil
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled_extensions(tmp_path_factory):
    """Every extension setup.py declares, built from the committed C source.

    Returns a dict from the last part of each module name to the loaded
    module.  The build goes to a temporary directory and always starts from
    the committed source, so an in-place build left in the work tree is never
    what the kernel-parity tests compare against, and the modules are loaded
    without entering sys.modules, so knotpres.BACKEND and the other tests see
    no change.  Skips only when the configured C compiler is not on PATH; a
    compiler that is present but fails to build or load a kernel is an error.
    """
    compiler = sysconfig.get_config_var("CC").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"C compiler {compiler!r} not found")

    from setuptools import Distribution
    from setuptools.command.build_ext import build_ext

    extensions = runpy.run_path(str(ROOT / "setup.py"))["EXTENSIONS"]
    for ext in extensions:
        ext.sources = [str(ROOT / s) for s in ext.sources]
        ext.optional = False
    build_dir = tmp_path_factory.mktemp("extensions")
    cmd = build_ext(Distribution({"name": "knotpres", "ext_modules": extensions}))
    cmd.build_lib = str(build_dir / "lib")
    cmd.build_temp = str(build_dir / "temp")
    cmd.ensure_finalized()
    cmd.run()

    modules = {}
    for ext in extensions:
        spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules[ext.name.rpartition(".")[2]] = module
    return modules


@pytest.fixture(scope="session")
def compiled_kernel(compiled_extensions):
    """The compiled coset kernel."""
    return compiled_extensions["_coset_speedup"]


@pytest.fixture(scope="session")
def compiled_smith(compiled_extensions):
    """The compiled Smith normal form kernel's entry point."""
    return compiled_extensions["_abelian_speedup"].smith


@pytest.fixture(scope="session")
def compiled_tietze(compiled_extensions):
    """The compiled Tietze consequence search's entry point."""
    return compiled_extensions["_tietze_speedup"].search
