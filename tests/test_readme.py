import ast
import doctest
import re
from pathlib import Path

import tradekit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    # The ```python blocks as doctests; the closing fence is not part of them.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md[{i}]", str(README), 0))
    assert runner.tries > 0 and runner.failures == 0


def _loaded_names(package: Path) -> set[str]:
    # Every name a module reads, as a bare name or as an attribute.
    names = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _documented_names() -> set[str]:
    # Segments of every backticked dotted name, a call's arguments dropped:
    # `tradekit.verify` gives tradekit and verify, `trade_map(q, k)` trade_map.
    names = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        match = re.fullmatch(r"([\w.]+)(\(.*\))?", span)
        if match:
            names.update(match.group(1).split("."))
    return names


def test_every_export_has_a_caller_or_a_readme_entry():
    package = Path(tradekit.__file__).resolve().parent
    reached = _loaded_names(package) | _documented_names()
    assert [name for name in tradekit.__all__ if name not in reached] == []
