"""The benchmark tracer patches a "Class.method" target through
``cls.__dict__[method]`` and a function through its module, so each target it
names must stay defined in that place, not on a helper or a base class."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_targets_are_defined_where_patched():
    tracer = _tracer()
    targets = [(modname, attr) for modname, attr, _ in tracer.SPANS + tracer.COUNTS]
    for method in ("FieldElement.__mul__", "FieldElement.__add__", "FieldElement.__sub__",
                   "FieldElement.inverse"):
        assert ("fields", method) in targets
    assert ("gassmann", "MatElem.mul") in targets
    for modname, attr in targets:
        module = importlib.import_module(f"ffequiv.{modname}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr
