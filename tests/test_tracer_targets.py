"""The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
looked up by name; a deletion or rename in the library must fail here, not
crash a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}.{t[1]}")
def test_tracer_target_resolves(target):
    mod_name, attr, _layer, _keep_span, only_in = target
    home = importlib.import_module(mod_name)
    if "." in attr:  # the tracer patches the method in the class's own dict
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(home, cls_name))
        return
    fn = getattr(home, attr)
    assert callable(fn)
    for name in only_in or ():
        # Each module named for the wrapper must bind this same function.
        assert getattr(importlib.import_module(name), attr, None) is fn
