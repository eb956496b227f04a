import importlib

import pytest

MODULES = (
    "stratnet",
    "stratnet.builder",
    "stratnet.correctness",
    "stratnet.formula",
    "stratnet.interactive",
    "stratnet.net",
    "stratnet.rewrite",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
