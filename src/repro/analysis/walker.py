"""The AST walker and the per-file :class:`LintContext`.

One recursive pass over a module's AST, maintaining exactly the state
the rule families need:

* a **scope stack** (module, then nested functions) with the
  dataflow-lite name bindings and sanitized-name sets of
  :mod:`repro.analysis.scopes`;
* a **class stack** with the two classifications the concurrency rules
  key on — *is this a socketserver request handler?* (per-request
  instances whose only shared state hangs off ``self.server``) and
  *does this class own a lock?* (then bare ``+=`` on its attributes is
  a lost-update bug);
* the **lock depth**: how many enclosing ``with <...lock...>:`` blocks
  surround the current node.

Rules subscribe to node types via :attr:`~repro.analysis.rules.Rule.
interests`; the walker dispatches each node to the interested rules
with the shared context and collects their findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type

from repro.analysis import scopes
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

#: identifiers that denote a mutual-exclusion guard in a ``with``
#: statement (``with self._lock:``, ``with store_mutex:``)
_LOCKISH = re.compile(r"(?i)(lock|mutex)")

#: base-class name fragments marking a socketserver-style *request
#: handler* — instantiated per request, sharing state only through
#: ``self.server``
_HANDLER_BASE = re.compile(r"RequestHandler$")


def is_lockish(node: ast.AST) -> bool:
    """Whether a ``with`` context expression looks like a lock."""
    if isinstance(node, ast.Call):
        return is_lockish(node.func)
    if isinstance(node, ast.Attribute):
        return bool(_LOCKISH.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(_LOCKISH.search(node.id))
    return False


@dataclass
class ClassInfo:
    """What the concurrency rules need to know about a class."""

    name: str
    base_names: Tuple[str, ...]
    is_handler: bool
    owns_lock: bool


@dataclass
class ScopeInfo:
    """One lexical scope (module or function) on the walker stack."""

    name: str
    qualname: str
    bindings: Dict[str, str]
    sanitized: Set[str]


def classify_class(node: ast.ClassDef) -> ClassInfo:
    bases = tuple(name for name in
                  (scopes.dotted_name(base) for base in node.bases)
                  if name is not None)
    is_handler = any(_HANDLER_BASE.search(base.split(".")[-1])
                     for base in bases)
    owns_lock = False
    for sub in ast.walk(node):
        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (sub.targets if isinstance(sub, ast.Assign)
                   else [sub.target])
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and _LOCKISH.search(target.attr)):
                owns_lock = True
    return ClassInfo(name=node.name, base_names=bases,
                     is_handler=is_handler, owns_lock=owns_lock)


class LintContext:
    """Everything a rule may ask about the node it was handed."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Dict[int, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
        module_scope = ScopeInfo(
            name="<module>", qualname="<module>",
            bindings=scopes.scope_bindings(tree),
            sanitized=scopes.sanitized_names(tree))
        self.scope_stack: List[ScopeInfo] = [module_scope]
        self.class_stack: List[ClassInfo] = []
        self.lock_depth = 0

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def scope(self) -> ScopeInfo:
        return self.scope_stack[-1]

    @property
    def current_class(self) -> Optional[ClassInfo]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def in_lock(self) -> bool:
        return self.lock_depth > 0

    def qualname(self) -> str:
        """Dotted name of the enclosing function (module scope:
        ``<module>``)."""
        return self.scope.qualname

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def consumer_call(self, node: ast.AST) -> Optional[ast.Call]:
        """The call that directly consumes ``node`` as an argument."""
        parent = self.parent(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            return parent
        return None

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def infer(self, node: Optional[ast.AST]) -> str:
        return scopes.infer(node, self.scope.bindings)

    def sanitized(self, name: str) -> bool:
        return name in self.scope.sanitized

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, node: ast.AST, rule: str, severity: str,
                message: str, hint: str = "") -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule=rule, path=self.path, line=lineno, col=col,
                       severity=severity, message=message, hint=hint,
                       code=self.source_line(lineno))


class Walker:
    """Dispatch every AST node to the rules interested in its type."""

    def __init__(self, ctx: LintContext, rules: Iterable[Rule]):
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._interested: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in rules:
            for node_type in rule.interests:
                self._interested.setdefault(node_type, []).append(rule)

    def run(self) -> List[Finding]:
        self._visit(self.ctx.tree)
        return self.findings

    def _visit(self, node: ast.AST) -> None:
        ctx = self.ctx
        pushed_scope = pushed_class = False
        lock_added = 0
        if isinstance(node, ast.ClassDef):
            ctx.class_stack.append(classify_class(node))
            pushed_class = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = (node.name if ctx.qualname() == "<module>"
                        else f"{ctx.qualname()}.{node.name}")
            ctx.scope_stack.append(ScopeInfo(
                name=node.name, qualname=qualname,
                bindings=scopes.scope_bindings(node),
                sanitized=scopes.sanitized_names(node)))
            pushed_scope = True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            lock_added = sum(1 for item in node.items
                             if is_lockish(item.context_expr))
            ctx.lock_depth += lock_added
        for rule in self._interested.get(type(node), ()):
            self.findings.extend(rule.check(node, ctx))
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if pushed_scope:
            ctx.scope_stack.pop()
        if pushed_class:
            ctx.class_stack.pop()
        ctx.lock_depth -= lock_added
