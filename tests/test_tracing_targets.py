"""The traced benchmark run wraps ``rosselab`` functions that it names by
string in ``benchmarks/tracing.py``; a rename in the package must fail here,
not only when the benchmark runs with ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize("layer", TRACING_MODULE.LAYERS)
def test_layer_is_a_package_module(layer):
    importlib.import_module(f"rosselab.{layer}")


@pytest.mark.parametrize("name,module,attr,coarse", TRACING_MODULE.TARGETS,
                         ids=[target[0] for target in TRACING_MODULE.TARGETS])
def test_target_resolves(name, module, attr, coarse):
    owner = importlib.import_module(f"rosselab.{module}")
    if "." in attr:
        # the tracer patches the method in the class's own namespace
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, attr))
