"""Every function and method that the benchmark's tracer wraps exists, and
every other public function of the package is called from the package.

The tracer in perfbench/tracer.py looks its targets up by name, so a target
that is renamed or deleted would only show when tracing; this reads its
LAYERS table (without importing the perfbench package) and checks each name.
"""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
SRC = os.path.join(ROOT, "src", "trophodge")


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


def test_every_public_function_is_called_from_src():
    """A module-level public function of src/trophodge that no code in
    src/trophodge names, apart from its own def, is reached only from tests
    or the tracer: it moves to tests/ or goes.  Names in the tracer's LAYERS
    are exempt until the benchmark drops them.  The exempt names that are
    still named nowhere else in src/ are zigzag_representative,
    primitive_parts, poincare_pairing, quotient_dim, row_space_rank, in_span,
    random_homogeneous, star_fan_weights and weight_from_class."""
    defined, named = {}, set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[node.name] = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    traced = {target for _module, targets, _span, _sizer in _layers() for target in targets}
    assert defined
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in named and name not in traced)
    assert not unused, unused
