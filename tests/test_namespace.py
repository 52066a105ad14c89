import importlib

import pytest

import liealg

LAYERS = ("audits", "bvp", "lifting", "linalg", "operators", "partitions")


@pytest.mark.parametrize("layer", LAYERS)
def test_package_republishes_each_layer_all(layer):
    module = importlib.import_module(f"liealg.{layer}")
    assert module.__all__
    for name in module.__all__:
        assert getattr(liealg, name, None) is getattr(module, name), f"liealg.{name}"
