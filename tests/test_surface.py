"""The library keeps only what something outside the tests calls.

Every top-level function and class of ``src/horocp`` and every non-dunder
method of its top-level classes must be named as a word somewhere besides
its own definition: in another line of ``src/horocp`` (``__init__.py``'s
re-exports do not count), in README.md, or in ``perfbench``.  A name that
only tests reach belongs in ``tests/``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "horocp").glob("*.py") if p.name != "__init__.py")


def definitions():
    """(module, qualified name) of each function, class and non-dunder method."""
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        yield path.name, f"{node.name}.{member.name}"


def test_every_library_name_has_a_caller_outside_the_tests():
    callers = [*MODULES, ROOT / "README.md", *sorted((ROOT / "perfbench").rglob("*.py"))]
    words = Counter(w for p in callers for w in re.findall(r"\w+", p.read_text(encoding="utf-8")))
    defs = [(module, qualified, qualified.rpartition(".")[2]) for module, qualified in definitions()]
    # a name defined k times (a method on several classes) needs k + 1 mentions
    defined = Counter(name for *_, name in defs)
    unused = [f"{module}:{qualified}" for module, qualified, name in defs
              if words[name] <= defined[name]]
    assert not unused, f"named only by their definitions: {unused}"
