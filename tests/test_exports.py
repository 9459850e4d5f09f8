"""Every package's export list resolves.

``from <package> import *`` raises ``AttributeError`` on a name that
``__all__`` lists and the package no longer defines, so a deletion that
leaves its export behind fails here rather than at a user's first
star-import.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves_every_export(package):
    exports = importlib.import_module(package).__all__
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if name not in namespace] == []
