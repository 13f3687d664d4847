"""The warning filters of ``pyproject.toml``: every DeprecationWarning is an
error, except the one that hypothesis meets when it imports ``libcst`` to
write a falsifying example's patch file, where the error would end pytest in
an internal error instead of the failure report."""

import importlib
import importlib.util
import sys
import warnings

import pytest


def test_importing_libcst_under_the_project_filters_raises_nothing(monkeypatch):
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    # A fresh import: the modules already loaded are put back afterwards.
    for name in [n for n in sys.modules if n.split(".")[0] in ("libcst", "mypy_extensions")]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("libcst")


def test_any_other_deprecation_warning_is_still_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)
