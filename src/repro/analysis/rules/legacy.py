"""``no-legacy-entrypoints``: library code may not call the deprecated
free functions.

PR 4 made :class:`repro.api.VerificationEngine` the single entry point
and left the pre-engine free functions (``check_containment``,
``maximize_output``, ``check_prop1`` ...) as thin deprecated shims that
emit :class:`~repro.api.config.LegacyEntryPointWarning` and forward to
``_``-prefixed implementations.  The shims exist *only* for external
callers; ``src/`` code calling one re-enters the library through the
deprecated door, skips engine-level config resolution, and used to be
caught only by a runtime warning filter in CI.  This rule is the static
replacement: any call whose resolved qualified name is one of the shims
is flagged at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule

__all__ = ["NoLegacyEntrypointsRule", "LEGACY_ENTRYPOINTS"]

#: The PR-4 deprecated shims: fully-qualified implementation homes.  The
#: same names are re-exported from package ``__init__`` modules, so the
#: rule matches on the *terminal* name once the chain resolves into the
#: ``repro`` namespace.
LEGACY_ENTRYPOINTS = {
    "check_containment": "repro.exact.verify",
    "output_range_exact": "repro.exact.verify",
    "maximize_output": "repro.exact.bab",
    "minimize_output": "repro.exact.bab",
    "check_prop1": "repro.core.propositions",
    "check_prop2": "repro.core.propositions",
    "check_prop4": "repro.core.propositions",
    "check_prop5": "repro.core.propositions",
    "verify_from_scratch": "repro.core.verifier",
}


class NoLegacyEntrypointsRule(Rule):
    name = "no-legacy-entrypoints"
    description = ("library code must use VerificationEngine, not the "
                   "deprecated PR-4 free functions")
    scope = ("repro",)
    # The shims' own modules define (and their packages re-export) the
    # functions; defining/forwarding is not calling.
    exempt = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            if qual is None:
                continue
            terminal = qual.rsplit(".", 1)[-1]
            home = LEGACY_ENTRYPOINTS.get(terminal)
            if home is None:
                continue
            # Only flag names that resolve into the repro namespace (a
            # local helper that happens to share a name stays legal), and
            # never flag the `_`-prefixed implementations.
            if not qual.startswith("repro.") and "." in qual:
                continue
            yield self.finding(
                ctx, node,
                f"call to deprecated entry point {terminal}() (lives in "
                f"{home}); use VerificationEngine / the corresponding "
                f"_-prefixed implementation instead")
