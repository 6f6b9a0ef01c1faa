"""No module under ``src/repro`` imports a name it never uses.

An import counts as used when its bound name appears in the module as
a name, inside a string annotation or in ``__all__``, or when its
statement carries a ``noqa`` comment (registration imports such as
``analysis/rules/__init__.py``'s).  Names that only a docstring or a
comment mentions do not count.
"""

import ast
import pathlib
import re
from typing import List, Set

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _used_names(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()

    def words_in_strings(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(_WORD.findall(sub.value))

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            words_in_strings(node.annotation)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            words_in_strings(node.returns)
        elif isinstance(node, ast.AnnAssign):
            words_in_strings(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                words_in_strings(node.value)
    return used


def dead_imports(source: str) -> List[str]:
    """``"line: name"`` for every imported name ``source`` never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        end = node.end_lineno or node.lineno
        if any("noqa" in lines[i - 1] for i in range(node.lineno, end + 1)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                dead.append(f"{node.lineno}: {bound}")
    return dead


def test_scan_sees_what_it_must():
    source = '''
from typing import Dict, List, Optional, Tuple
from repro.errors import CoverError, MappingError
from repro.mapping import insertion  # noqa: F401
import repro.sg.graph

__all__ = ["CoverError"]

def f(x: "Optional[int]") -> List[int]:
    """Dict and MappingError only appear in this docstring."""
    return repro.sg.graph
'''
    assert dead_imports(source) == ["2: Dict", "2: Tuple",
                                    "3: MappingError"]


def test_no_dead_imports_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for entry in dead_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(SRC)}:{entry}")
    assert not found, "\n".join(found)
