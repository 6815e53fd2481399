import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    # The tracer's LAYERS, read from its source by path: nothing is imported
    # from perfbench and no bytecode is written next to it.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    # The benchmark's tracer wraps each (module, qualified name) it lists; a
    # renamed or deleted one fails here rather than in a traced run.
    layers = _layers()
    assert layers
    unresolved = []
    for module, qualname, _ in layers:
        owner = importlib.import_module(f"tradekit.{module}")
        *cls_path, attr = qualname.split(".")
        try:
            for part in cls_path:
                owner = getattr(owner, part)
            target = inspect.getattr_static(owner, attr)
        except AttributeError:
            target = None
        if not inspect.isfunction(target):
            unresolved.append(f"{module}.{qualname}")
    assert unresolved == []
