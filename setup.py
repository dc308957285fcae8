import os

from setuptools import Extension, setup

KERNEL = Extension(
    "knotpres._coset_speedup",
    ["src/knotpres/_coset_speedup.c"],
    # Without a working C compiler the install goes on with the pure kernel.
    optional=True,
)

# tests/conftest.py reads KERNEL from this file without running setup().
if __name__ == "__main__":
    setup(ext_modules=[] if os.environ.get("KNOTPRES_NO_EXT") == "1" else [KERNEL])
