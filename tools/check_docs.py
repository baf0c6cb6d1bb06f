#!/usr/bin/env python
"""Offline documentation checks.

Validates, without any external dependency:

* every relative link/image in ``docs/*.md``, ``README.md``, and the
  other top-level markdown files resolves to a real file;
* every page named in the ``mkdocs.yml`` nav exists in ``docs/``;
* every markdown file under ``docs/`` is reachable from the nav;
* the generated CLI reference (``docs/cli.md``) matches what
  ``tools/gen_cli_docs.py`` renders from the live argparse parser — a
  new experiment, maintenance command, or flag that is not in the
  committed page fails the check;
* the event and metric catalogs in ``docs/observability.md`` match
  ``src/``: every trace event kind and metric name emitted by literal
  has a row, and every row's name is still emitted;
* every inline backticked dotted ``repro.`` name in ``README.md``,
  ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md`` imports as a
  module or an attribute path of one.

When ``mkdocs`` is importable (CI installs it; the offline dev image
does not) it additionally runs the real ``mkdocs build --strict``.

Usage::

    python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

#: Markdown inline links/images: [text](target) — targets that are
#: not URLs or pure in-page anchors must resolve on disk.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Trace events are emitted as ``record("kind", …)``,
#: ``_event("kind", …)``, ``<trace>.emit("kind", …)`` or built as
#: ``TraceEvent(kind="kind", …)``; metrics as ``.inc("name", …)`` or
#: ``.observe("name", …)``.
_EVENT_RE = re.compile(
    r'(?:\b(?:record|_event)|\.emit)\(\s*"([^"]+)"'
    r'|\bkind\s*=\s*"(\w+\.[\w.-]+)"'
)
_METRIC_RE = re.compile(r'\.(?:inc|observe)\(\s*"([^"]+)"')

#: An inline code span that starts with a dotted ``repro.`` name
#: (``repro.x.y``, optionally followed by a call or other text).
_DOTTED_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")

TOP_LEVEL = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
]


def _iter_links(path: Path):
    text = path.read_text(encoding="utf-8")
    in_code = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        yield from _LINK_RE.findall(line)


def check_relative_links(files: list[Path]) -> list[str]:
    errors = []
    for path in files:
        for target in _iter_links(path):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO)}: broken link {target!r}")
    return errors


def check_nav() -> list[str]:
    """Parse the flat nav out of mkdocs.yml (no yaml dependency)."""
    errors = []
    config = REPO / "mkdocs.yml"
    if not config.exists():
        return ["mkdocs.yml is missing"]
    nav_pages = re.findall(
        r"^\s+-\s+[^:]+:\s+(\S+\.md)\s*$",
        config.read_text(encoding="utf-8"),
        flags=re.MULTILINE,
    )
    if not nav_pages:
        errors.append("mkdocs.yml: nav lists no pages")
    for page in nav_pages:
        if not (DOCS / page).exists():
            errors.append(f"mkdocs.yml: nav page docs/{page} is missing")
    for path in sorted(DOCS.glob("*.md")):
        if path.name not in nav_pages:
            errors.append(
                f"docs/{path.name} exists but is not in the mkdocs nav"
            )
    return errors


def check_cli_reference() -> list[str]:
    """Re-render docs/cli.md from the live parser and diff it.

    ``gen_cli_docs`` puts ``src/`` on ``sys.path`` itself, so this
    works without ``PYTHONPATH`` — but an import failure there is a
    real error, not a skip: the reference must track the binary.
    """
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import gen_cli_docs
    except Exception as exc:  # pragma: no cover - import environment
        return [f"could not import tools/gen_cli_docs.py: {exc!r}"]
    page = DOCS / "cli.md"
    if not page.exists():
        return ["docs/cli.md is missing; run tools/gen_cli_docs.py"]
    if page.read_text(encoding="utf-8") != gen_cli_docs.render():
        return [
            "docs/cli.md is stale (the CLI grew a flag or subcommand "
            "it does not document); regenerate with "
            "`PYTHONPATH=src python tools/gen_cli_docs.py`"
        ]
    print("docs/cli.md matches the live hcs-experiments parser")
    return []


def _catalog_names(text: str, header: str) -> set[str]:
    """Backticked names in the first column of the markdown table
    whose header row starts with ``| <header> |``."""
    names: set[str] = set()
    in_table = False
    for line in text.splitlines():
        if line.startswith(f"| {header} |"):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def check_observability_catalog() -> list[str]:
    """Diff the observability catalogs against what ``src/`` emits."""
    events: set[str] = set()
    metrics: set[str] = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        events.update(a or b for a, b in _EVENT_RE.findall(text))
        metrics.update(_METRIC_RE.findall(text))
    page = DOCS / "observability.md"
    label = page.relative_to(REPO)
    text = page.read_text(encoding="utf-8")
    errors = []
    for what, emitted, header in (
        ("event", events, "kind"),
        ("metric", metrics, "metric"),
    ):
        rows = _catalog_names(text, header)
        if not rows:
            errors.append(f"{label}: no `| {header} |` table")
        errors += [
            f"{label}: {what} {name!r} is emitted in src/ but "
            f"has no catalog row"
            for name in sorted(emitted - rows)
        ]
        errors += [
            f"{label}: {what} row {name!r} is no longer emitted "
            f"in src/"
            for name in sorted(rows - emitted)
        ]
    if not errors:
        print(
            f"{label} catalogs every emitted event "
            f"({len(events)}) and metric ({len(metrics)})"
        )
    return errors


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` imports as a module, or as attributes of the
    longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_dotted_names(files: list[Path]) -> list[str]:
    """Every backticked ``repro.`` name outside code blocks resolves."""
    sys.path.insert(0, str(REPO / "src"))
    errors = []
    checked = 0
    for path in files:
        in_code = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.lstrip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            for dotted in _DOTTED_NAME_RE.findall(line):
                checked += 1
                if not _resolves(dotted):
                    errors.append(
                        f"{path.relative_to(REPO)}: `{dotted}` does not "
                        f"import as a module or attribute"
                    )
    if not errors:
        print(f"{checked} backticked repro names resolve")
    return errors


def run_mkdocs_if_available() -> list[str]:
    try:
        import mkdocs  # noqa: F401
    except ImportError:
        print("mkdocs not installed; skipping strict build (offline mode)")
        return []
    import subprocess

    result = subprocess.run(
        [sys.executable, "-m", "mkdocs", "build", "--strict",
         "--site-dir", str(REPO / ".mkdocs-site")],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return [f"mkdocs build --strict failed:\n{result.stderr.strip()}"]
    print("mkdocs build --strict: OK")
    return []


def main() -> int:
    files = [DOCS / p.name for p in sorted(DOCS.glob("*.md"))]
    files += [REPO / name for name in TOP_LEVEL if (REPO / name).exists()]
    errors = check_relative_links(files)
    errors += check_nav()
    errors += check_cli_reference()
    errors += check_observability_catalog()
    # ROADMAP.md may name what a change removed.
    errors += check_dotted_names(
        [path for path in files if path.name != "ROADMAP.md"]
    )
    errors += run_mkdocs_if_available()
    if errors:
        print(f"{len(errors)} documentation error(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"docs OK: {len(files)} files, all links resolve, nav complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
