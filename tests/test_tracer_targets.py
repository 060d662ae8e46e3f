"""The benchmark (``perfbench/``) calls library names, and its tracer
(``perfbench/tracer.py``) wraps library functions looked up by name; a
deletion or rename in the library must fail here, not crash a benchmark run."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _benchmark_names() -> list[str]:
    """Every dotted library name a ``perfbench/*.py`` file reaches: each
    ``from peepopt import`` name and each attribute chain on a name bound to
    ``peepopt`` or one of its modules."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> dotted library name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name, a.name) for a in node.names
                             if a.name.split(".")[0] == "peepopt")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "peepopt":
                for a in node.names:
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"
                    names.add(f"{node.module}.{a.name}")
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id]] + chain[::-1]))
    return sorted(names)


def _resolve(dotted: str):
    """The object ``dotted`` names, importing submodules on the way."""
    first, *rest = dotted.split(".")
    obj = importlib.import_module(first)
    for part in rest:
        if inspect.ismodule(obj) and not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", _benchmark_names())
def test_benchmark_name_resolves(name):
    _resolve(name)
