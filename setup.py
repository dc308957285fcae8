from setuptools import Extension, setup

# Without a working C compiler the install goes on with the pure kernels.
EXTENSIONS = [
    Extension("knotpres._coset_speedup", ["src/knotpres/_coset_speedup.c"], optional=True),
    Extension("knotpres._abelian_speedup", ["src/knotpres/_abelian_speedup.c"], optional=True),
    Extension("knotpres._tietze_speedup", ["src/knotpres/_tietze_speedup.c"], optional=True),
]

# tests/conftest.py reads EXTENSIONS from this file without running setup().
if __name__ == "__main__":
    setup(ext_modules=EXTENSIONS)
