#!/usr/bin/env python
"""Docstring-coverage gate for the public API.

Walks every export in a module's ``__all__`` plus, for classes, their
public methods and properties, and reports the fraction that carry a
docstring.  Written in-repo (no interrogate/pydocstyle dependency) so
it runs in offline environments; CI enforces ``--fail-under 90`` on
the ``repro`` package API and ``--fail-under 100`` on operator-facing
modules (``repro.serve.gateway``).

The default run gates the whole package API: the root's ``__all__``,
the ``__all__`` of every ``repro.*`` subpackage, and ``repro.errors``
(which has no ``__all__``, so its public callables count).  An object
exported from several places is counted once.

Usage::

    PYTHONPATH=src python tools/check_docstrings.py --fail-under 90
    PYTHONPATH=src python tools/check_docstrings.py --verbose
    PYTHONPATH=src python tools/check_docstrings.py \\
        --module repro.serve.gateway --fail-under 100
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys


def _is_public_member(name: str) -> bool:
    return not name.startswith("_")


def _has_doc(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def _class_members(cls: type):
    """(name, object) for the class's own public methods/properties.

    Inherited members are the parent's responsibility; ``__init__`` is
    covered by the class docstring convention used in this codebase.
    """
    for name, member in vars(cls).items():
        if not _is_public_member(name):
            continue
        if isinstance(member, property):
            yield name, member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            yield name, member.__func__
        elif inspect.isfunction(member):
            yield name, member


def collect(package) -> dict[str, bool]:
    """Qualified name -> has-docstring for every public API item.

    ``package`` is any module with an ``__all__``; a module without
    one falls back to its public top-level callables.  Names are
    qualified by the module that defines the object, so a re-export
    and its original share one entry.
    """
    items: dict[str, bool] = {}
    exported = getattr(package, "__all__", None)
    if exported is None:
        exported = [
            name
            for name, obj in vars(package).items()
            if _is_public_member(name)
            and getattr(obj, "__module__", None) == package.__name__
        ]
    for name in exported:
        obj = getattr(package, name)
        if isinstance(obj, str) or not callable(obj):
            continue  # __version__, singletons
        qualified = f"{obj.__module__}.{obj.__qualname__}"
        items[qualified] = _has_doc(obj)
        if inspect.isclass(obj):
            for member_name, func in _class_members(obj):
                if func is not None:
                    items[f"{qualified}.{member_name}"] = _has_doc(func)
    return items


def default_modules() -> list[str]:
    """The package root, every ``repro.*`` subpackage, and
    ``repro.errors``."""
    import repro

    subpackages = sorted(
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    )
    return ["repro", *subpackages, "repro.errors"]


def _coverage(items: dict[str, bool]) -> tuple[int, float]:
    documented = sum(items.values())
    return documented, (
        100.0 * documented / len(items) if items else 100.0
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fail-under",
        type=float,
        default=90.0,
        help="minimum coverage percentage (default 90)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="list every undocumented item",
    )
    parser.add_argument(
        "--module",
        default=None,
        help=(
            "dotted module to gate (default: the repro package API, "
            "root and every subpackage)"
        ),
    )
    args = parser.parse_args(argv)

    modules = [args.module] if args.module else default_modules()
    items: dict[str, bool] = {}
    for name in modules:
        module_items = collect(importlib.import_module(name))
        if len(modules) > 1:
            documented, coverage = _coverage(module_items)
            print(
                f"  {name}: {documented}/{len(module_items)} "
                f"({coverage:.1f}%)"
            )
        items.update(module_items)
    documented, coverage = _coverage(items)
    missing = [name for name, has_doc in items.items() if not has_doc]

    label = args.module or f"the repro API ({len(modules)} modules)"
    print(
        f"docstring coverage for {label}: "
        f"{documented}/{len(items)} "
        f"({coverage:.1f}%), threshold {args.fail_under:.0f}%"
    )
    if missing and (args.verbose or coverage < args.fail_under):
        print("undocumented:")
        for name in missing:
            print(f"  {name}")
    if coverage < args.fail_under:
        print("FAIL")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
