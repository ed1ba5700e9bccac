#!/usr/bin/env python
"""Layer-contract gate for CI: the simulation kernel must stay a leaf.

``repro.core.sim`` is the composable simulation kernel. Upper layers
(tenancy, fault orchestration, observability, the service frontend)
plug into it through the protocol seams in
``repro.core.sim.hooks`` — the kernel must never import them back, or
the dependency inversion silently rots into a cycle. This script walks
every module of a contracted package with ``ast``, resolves absolute
*and* relative imports (including lazy imports inside functions — a
deferred import is still a dependency), and fails when any import lands
in a forbidden layer.

The contract table is data: add a package and its forbidden prefixes to
``CONTRACTS`` to put another boundary under guard. ``SEAMS`` holds
explicitly blessed exceptions (currently none — the kernel needs no
special cases, and an empty allowlist is the healthiest state).

Usage::

    python tools/check_layers.py [--root src]
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterator, List, Tuple

#: the kernel's internal subsystem modules: the fleet layer must drive
#: members through the ``repro.core.sim`` package surface (and the
#: ``hooks``/``config`` seams it re-exports), never reach inside.
_KERNEL_INTERNALS = (
    "context",
    "dispatch",
    "faults",
    "kernel",
    "lifecycle",
    "machines",
    "robotics",
    "verification",
)

#: package -> import prefixes its modules must not reach, with the reason.
CONTRACTS: Dict[str, Dict[str, str]] = {
    "repro.core.sim": {
        "repro.tenancy": "tenancy enters via the TenancyLike/AdmissionLike seams",
        "repro.faults": "fault schedules enter via the FaultScheduleLike seam",
        "repro.observability": "tracing enters via the TracerLike seam",
        "repro.service": "the service frontend sits above the kernel",
        "repro.fleet": "the kernel must not know the fleet exists",
        "repro.serve": "the live server sits above the kernel",
    },
    # repro.serve may import the kernel, tenancy and observability — but
    # never the other way round, or the frontend grows into a cycle.
    "repro.core": {
        "repro.serve": "nothing under core/ may import the live server",
    },
    "repro.tenancy": {
        "repro.serve": "admission is serve's dependency, not its dependant",
    },
    "repro.observability": {
        "repro.serve": "tracing is serve's dependency, not its dependant",
    },
    "repro.fleet": {
        **{
            f"repro.core.sim.{name}": "kernel internals are off limits — use "
            "the repro.core.sim package surface"
            for name in _KERNEL_INTERNALS
        },
    },
}

#: (module, imported-name) pairs exempted from the contract. Keep empty.
SEAMS: Tuple[Tuple[str, str], ...] = ()


def module_name(path: str, root: str) -> str:
    """Dotted module name of ``path`` relative to the source ``root``."""
    rel = os.path.relpath(path, root)
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def resolve_relative(module: str, node: ast.ImportFrom, is_package: bool) -> str:
    """Absolute target of a ``from ... import`` with ``node.level`` dots."""
    if node.level == 0:
        return node.module or ""
    # Level 1 is the current package: the module's own parent, or the
    # module itself when it is a package __init__.
    parts = module.split(".")
    drop = node.level if not is_package else node.level - 1
    base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def iter_imports(path: str, module: str) -> Iterator[Tuple[int, str]]:
    """Yield (lineno, absolute-imported-module) for every import in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    is_package = os.path.basename(path) == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, resolve_relative(module, node, is_package)


def check_package(root: str, package: str, forbidden: Dict[str, str]) -> List[str]:
    """All contract violations inside ``package`` under source ``root``."""
    pkg_dir = os.path.join(root, *package.split("."))
    if not os.path.isdir(pkg_dir):
        return [f"{package}: package directory {pkg_dir} not found"]
    violations: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(pkg_dir):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            module = module_name(path, root)
            for lineno, target in iter_imports(path, module):
                for prefix, reason in forbidden.items():
                    hit = target == prefix or target.startswith(prefix + ".")
                    if hit and (module, target) not in SEAMS:
                        violations.append(
                            f"{path}:{lineno}: {module} imports {target} "
                            f"(forbidden: {reason})"
                        )
    return violations


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src", help="source root (default src)")
    args = parser.parse_args(argv)

    all_violations: List[str] = []
    for package, forbidden in sorted(CONTRACTS.items()):
        violations = check_package(args.root, package, forbidden)
        status = "OK" if not violations else f"{len(violations)} violation(s)"
        print(f"layer contract {package}: {status}")
        all_violations.extend(violations)
    for line in all_violations:
        print(f"  {line}")
    if all_violations:
        print("FAIL: layer contracts violated")
        return 1
    print("OK: all layer contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
