"""Every function and method that the benchmark's tracer wraps exists.

The tracer in perfbench/tracer.py looks its targets up by name, so a target
that is renamed or deleted would only show when tracing; this reads its
LAYERS table (without importing the perfbench package) and checks each name.
"""

import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _layers():
    with open(TRACER, encoding="utf-8") as fh:
        source = fh.read()
    namespace = {"__name__": "tracer"}
    exec(compile(source, TRACER, "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_name_exists():
    layers = _layers()
    assert layers
    for module, targets, _span, _sizer in layers:
        mod = importlib.import_module(f"trophodge.{module}")
        for target in targets:
            if "." in target:
                cls_name, meth = target.split(".")
                assert meth in vars(getattr(mod, cls_name)), f"{module}.{target}"
            else:
                assert callable(getattr(mod, target, None)), f"{module}.{target}"
