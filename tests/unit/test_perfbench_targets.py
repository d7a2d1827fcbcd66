"""The end-to-end benchmark's wrap targets still exist in ``src/``.

``perfbench/layers.py`` attributes time to layers by wrapping named
functions and methods after ``import repro``.  A refactor that moves
or renames one of them would only surface in a traced benchmark run;
this test makes it fail tier-1 instead.  The layer map is loaded by
file path and never edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"

pytestmark = pytest.mark.skipif(
    not LAYERS.is_file(), reason="needs a source checkout with perfbench/"
)


@pytest.fixture(scope="module")
def layers():
    name = "_perfbench_layers_under_test"
    spec = importlib.util.spec_from_file_location(name, LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(name, None)


def test_every_target_resolves_where_it_is_wrapped(layers):
    for target in layers.TARGETS:
        owner, attr, is_class = layers.resolve(target.where)
        if is_class:
            # install() wraps through the class's own __dict__, so an
            # inherited method would raise KeyError in the traced run.
            assert attr in owner.__dict__, target.where
            assert callable(owner.__dict__[attr]), target.where
        else:
            assert callable(getattr(owner, attr)), target.where


def test_every_required_import_site_holds_a_wrapped_function(layers):
    functions = {
        id(getattr(owner, attr))
        for owner, attr, is_class in (
            layers.resolve(target.where) for target in layers.TARGETS
        )
        if not is_class
    }
    for site in layers.REQUIRED_SITES:
        owner, attr, _ = layers.resolve(site)
        assert hasattr(owner, attr), site
        # install() replaces a function at every module holding the same
        # object, so the site must import it by name, not redefine it.
        assert id(getattr(owner, attr)) in functions, site
