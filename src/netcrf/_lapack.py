"""The four LAPACK routines netcrf calls, from scipy's compiled wrappers.

``dgeqp3``, ``dorgqr``, ``dtrtrs`` and ``dtrtri`` live in scipy's f2py
extension ``scipy.linalg._flapack``. Importing it by name would first run
``scipy/linalg/__init__.py``, which loads scipy's array-API layer; that
clones the numpy namespace and so imports ``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and more, about half of a netcrf process's start-up. This module
loads the extension straight from its file in scipy's ``linalg`` directory,
under its real name (the name the extension's init symbol is derived from),
and registers it in ``sys.modules`` so that a later ``import scipy.linalg``
reuses the same module object. The routines are the same Fortran wrappers
either way, so the numbers are scipy's bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.__path__[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NAME)
    if spec is None:
        raise ImportError(f"cannot find {_NAME} in {scipy.__path__[0]}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load_flapack()

dgeqp3 = _flapack.dgeqp3
dorgqr = _flapack.dorgqr
dtrtrs = _flapack.dtrtrs
dtrtri = _flapack.dtrtri
