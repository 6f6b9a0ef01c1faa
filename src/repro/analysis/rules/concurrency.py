"""Concurrency rules: shared state is mutated under a lock, or not at
all.

``si-mapper serve`` runs a :class:`ThreadingHTTPServer`: handler
instances are per-request, but everything reachable through
``self.server`` (the store, the job service, any registry the server
grows) is shared by every in-flight request.  Traffic counters live on
the metrics registry, whose instruments lock every increment, because
bare ``+=`` on a shared counter is a read-modify-write race.

* ``conc-handler-shared-write`` — inside a request-handler class,
  assignment to or mutation of anything rooted at ``self.server``
  outside a ``with <lock>:`` block.
* ``conc-unlocked-counter`` — bare augmented assignment on counters:
  either ``self.<attr> += ...`` inside a class that owns a lock (the
  lock exists, so going around it is a lost-update bug), or
  ``<anything>.stats.<counter> += ...`` anywhere (stats objects are
  shared across threads).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.scopes import attr_chain

#: methods that mutate their receiver in place
_MUTATORS = {"append", "extend", "insert", "add", "update", "pop",
             "popitem", "remove", "discard", "clear", "setdefault",
             "sort", "reverse"}

_LOCK_HINT = ("wrap the mutation in `with <lock>:` or count it on "
              "the metrics registry")


def _server_rooted(node: ast.AST) -> Optional[List[str]]:
    """The ``self.server....`` chain of a target, or ``None``."""
    chain = attr_chain(node)
    if (chain is not None and len(chain) >= 3
            and chain[0] == "self" and chain[1] == "server"):
        return chain
    return None


@register
class HandlerSharedWriteRule(Rule):
    """Unlocked writes to ``self.server.*`` in request handlers."""

    ids = ("conc-handler-shared-write",)
    descriptions = {
        "conc-handler-shared-write":
            "request handler mutates shared server state "
            "(self.server.*) outside a lock",
    }
    interests = (ast.Assign, ast.AugAssign, ast.Call)

    def check(self, node: ast.AST, ctx) -> Iterator[Finding]:
        enclosing = ctx.current_class
        if enclosing is None or not enclosing.is_handler:
            return
        if ctx.in_lock:
            return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                chain = _server_rooted(target)
                if chain is not None:
                    yield ctx.finding(
                        node, "conc-handler-shared-write", "error",
                        f"handler writes shared server state "
                        f"'{'.'.join(chain)}' outside a lock — "
                        "concurrent requests race", _LOCK_HINT)
        elif isinstance(node, ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS):
                return
            chain = _server_rooted(func.value)
            if chain is None:
                return
            yield ctx.finding(
                node, "conc-handler-shared-write", "error",
                f"handler mutates shared server state "
                f"'{'.'.join(chain)}.{func.attr}(...)' outside a "
                "lock — concurrent requests race", _LOCK_HINT)


@register
class UnlockedCounterRule(Rule):
    """Bare ``+=`` on counters that have (or need) a lock."""

    ids = ("conc-unlocked-counter",)
    descriptions = {
        "conc-unlocked-counter":
            "non-atomic augmented assignment on a shared counter "
            "(lock-owning class, or a .stats counter field)",
    }
    interests = (ast.AugAssign,)

    def check(self, node: ast.AST, ctx) -> Iterator[Finding]:
        assert isinstance(node, ast.AugAssign)
        chain = attr_chain(node.target)
        if chain is None or len(chain) < 2:
            return
        dotted = ".".join(chain)
        # stats objects are shared across threads: a bare field
        # increment races whatever the calling context
        if len(chain) >= 3 and chain[-2] == "stats":
            yield ctx.finding(
                node, "conc-unlocked-counter", "error",
                f"'{dotted} {_op(node)}= ...' mutates a shared stats "
                "counter non-atomically — concurrent updates are "
                "lost",
                "count it on the metrics registry, whose counters "
                "lock every increment")
            return
        if ctx.in_lock:
            return
        enclosing = ctx.current_class
        if (enclosing is not None and enclosing.owns_lock
                and chain[0] == "self" and len(chain) == 2):
            yield ctx.finding(
                node, "conc-unlocked-counter", "error",
                f"'{dotted} {_op(node)}= ...' in lock-owning class "
                f"'{enclosing.name}' outside the lock — "
                "read-modify-write races lose updates", _LOCK_HINT)


def _op(node: ast.AugAssign) -> str:
    symbols = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
               ast.BitOr: "|", ast.BitAnd: "&", ast.BitXor: "^"}
    return symbols.get(type(node.op), "?")
