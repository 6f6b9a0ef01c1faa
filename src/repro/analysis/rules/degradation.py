"""Degradation-hygiene rules: fail soft, but never fail silent.

The distributed store's contract is *degrade to miss*: a network or
codec failure turns into a cache miss, never a crash.  That contract
is easy to over-implement with a bare ``except:`` — which also
swallows ``KeyboardInterrupt`` (Ctrl-C stops stopping the pipeline)
and ``SystemExit``, and masks :class:`~repro.errors.StoreConfigError`
(a misconfigured store should fail loudly at startup, not degrade
into a silent 0% hit rate).

* ``exc-swallow-interrupt`` — bare ``except:`` or ``except
  BaseException:`` that does not re-raise.  Always an error: there is
  no deliberate version of eating Ctrl-C.
* ``exc-broad-degrade`` — ``except Exception:`` whose body neither
  re-raises nor references the caught exception.  A warning, because
  the repo *does* have deliberate sites (hostile-envelope guards,
  pickle-or-skip payload probes); those carry a baseline justification
  instead of a code change.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.scopes import dotted_name


def _handler_names(node: ast.ExceptHandler) -> Iterator[str]:
    """Exception type names of one ``except`` clause."""
    if node.type is None:
        yield "<bare>"
        return
    types = (node.type.elts if isinstance(node.type, ast.Tuple)
             else [node.type])
    for item in types:
        name = dotted_name(item)
        if name is not None:
            yield name.split(".")[-1]


def _reraises(node: ast.ExceptHandler) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            return True
    return False


def _uses_bound_name(node: ast.ExceptHandler) -> bool:
    """Whether the handler body reads ``except ... as <name>``."""
    if node.name is None:
        return False
    for sub in node.body:
        for leaf in ast.walk(sub):
            if (isinstance(leaf, ast.Name) and leaf.id == node.name
                    and isinstance(leaf.ctx, ast.Load)):
                return True
    return False


@register
class SwallowInterruptRule(Rule):
    """Bare / BaseException handlers that eat Ctrl-C."""

    ids = ("exc-swallow-interrupt",)
    descriptions = {
        "exc-swallow-interrupt":
            "bare except / except BaseException without re-raise — "
            "swallows KeyboardInterrupt and SystemExit",
    }
    interests = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        names = set(_handler_names(node))
        if not names.intersection({"<bare>", "BaseException"}):
            return
        if _reraises(node):
            return
        clause = ("bare 'except:'" if "<bare>" in names
                  else "'except BaseException:'")
        yield ctx.finding(
            node, "exc-swallow-interrupt", "error",
            f"{clause} without re-raise swallows KeyboardInterrupt "
            "and SystemExit — Ctrl-C stops working",
            "catch Exception (or the specific errors) — or re-raise "
            "after cleanup")


@register
class BroadDegradeRule(Rule):
    """``except Exception`` that silently discards the failure."""

    ids = ("exc-broad-degrade",)
    descriptions = {
        "exc-broad-degrade":
            "except Exception that neither re-raises nor inspects "
            "the exception — degrades silently and masks "
            "StoreConfigError",
    }
    interests = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        names = set(_handler_names(node))
        if "Exception" not in names:
            return
        if _reraises(node) or _uses_bound_name(node):
            return
        yield ctx.finding(
            node, "exc-broad-degrade", "warning",
            "'except Exception:' neither re-raises nor inspects the "
            "exception — real failures (including StoreConfigError) "
            "degrade silently",
            "catch the specific transport/codec errors, or bind the "
            "exception and record it in stats/logs")
