#!/usr/bin/env python
"""Generate the ``hcs-experiments`` CLI reference page.

Renders ``docs/cli.md`` from the *actual* argparse parser
(:func:`repro.experiments.runner.build_parser`), the experiment
registry (``EXPERIMENTS``), and the maintenance-command tuple — so the
reference page cannot drift from the flags and subcommands the binary
accepts.  ``tools/check_docs.py`` re-renders the page and fails CI on
any mismatch: adding an experiment, maintenance command, or flag
without regenerating the page is a documentation error.

Usage::

    PYTHONPATH=src python tools/gen_cli_docs.py          # (re)write
    PYTHONPATH=src python tools/gen_cli_docs.py --check  # verify only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUTPUT = REPO / "docs" / "cli.md"

sys.path.insert(0, str(REPO / "src"))

HEADER = """\
# CLI reference: `hcs-experiments`

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_cli_docs.py
     tools/check_docs.py fails CI when this page is stale. -->

One binary drives the paper experiments and index maintenance.
Installed as `hcs-experiments` (or run as
`PYTHONPATH=src python -m repro.experiments.runner`).
"""


def _first_sentence(text: str | None) -> str:
    """First line of a docstring, trimmed to one sentence."""
    if not text:
        return ""
    line = text.strip().splitlines()[0].strip()
    return line


def _option_row(action: argparse.Action) -> tuple[str, str]:
    """Render one optional argument as (flags, help)."""
    flags = ", ".join(f"`{option}`" for option in action.option_strings)
    if action.metavar:
        flags += f" `{action.metavar}`"
    elif action.type is int or action.type is float:
        flags += " `N`"
    help_text = (action.help or "").strip()
    return flags, help_text


def render() -> str:
    """Render the full CLI reference page as markdown."""
    from repro.experiments.runner import (
        EXPERIMENTS,
        MAINTENANCE_COMMANDS,
        build_parser,
    )

    parser = build_parser()
    lines = [HEADER]
    lines.append("## Usage\n")
    lines.append("```text")
    lines.append(parser.format_usage().strip())
    lines.append("```\n")

    lines.append("## Experiments\n")
    lines.append(
        "Positional `names` select experiments (`all` runs every "
        "one).  Each regenerates a table/figure of the paper or a "
        "serving sweep:\n"
    )
    lines.append("| name | what it measures |")
    lines.append("| --- | --- |")
    for name, runner in EXPERIMENTS.items():
        module_doc = _first_sentence(
            sys.modules[runner.__module__].__doc__
        )
        lines.append(f"| `{name}` | {module_doc} |")
    lines.append("")

    lines.append("## Maintenance commands\n")
    lines.append(
        "Run alone (not combined with experiments) against a durable "
        "store via `--store-dir`:\n"
    )
    maintenance_help = {
        "verify-index": (
            "Detect-only scrub: checksum-verify every manifest entry "
            "against disk truth; exit 0 clean / 1 damage found / 2 "
            "unusable store."
        ),
        "scrub": (
            "Scrub and repair: re-derive damaged internal nodes as "
            "the k-way union of their children (byte-identical), "
            "quarantine unrepairable leaves; commits repairs as one "
            "generation."
        ),
        "ingest": (
            "Append rows as a delta generation (LSM-style) via "
            "`--ingest-rows`/`--ingest-values`; served merge-on-read "
            "until compacted."
        ),
        "compact": (
            "Fold delta generations back into base bitmaps "
            "(optionally the oldest `--max-deltas` only) and GC the "
            "folded files."
        ),
    }
    lines.append("| command | effect |")
    lines.append("| --- | --- |")
    for command in MAINTENANCE_COMMANDS:
        lines.append(
            f"| `{command}` | {maintenance_help.get(command, '')} |"
        )
    lines.append("")

    lines.append("## Options\n")
    lines.append("| flag | meaning |")
    lines.append("| --- | --- |")
    for action in parser._actions:
        if not action.option_strings:
            continue  # positional, documented above
        flags, help_text = _option_row(action)
        lines.append(f"| {flags} | {help_text} |")
    lines.append("")

    lines.append("## Examples\n")
    lines.append(
        """```bash
# One paper figure, quickly:
hcs-experiments fig6 --fast

# Everything, with metrics written out:
hcs-experiments all --fast --metrics-out metrics.json

# Maintenance against a durable index directory:
hcs-experiments verify-index --store-dir /data/hcs-index
hcs-experiments ingest --store-dir /data/hcs-index --ingest-rows 5000
hcs-experiments compact --store-dir /data/hcs-index
hcs-experiments scrub --store-dir /data/hcs-index \\
    --hierarchy-json hierarchy.json
```

See [the operator guide](gateway.md) for serving the index behind the
asyncio gateway, and [Concurrent serving](serving.md) for the
thread/shard compute tiers; `make bench-repo` measures serving."""
    )
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/cli.md is current instead of rewriting it",
    )
    args = parser.parse_args(argv)
    rendered = render()
    if args.check:
        if not OUTPUT.exists() or OUTPUT.read_text() != rendered:
            print(
                "docs/cli.md is stale: regenerate with "
                "`PYTHONPATH=src python tools/gen_cli_docs.py`"
            )
            return 1
        print("docs/cli.md is current")
        return 0
    OUTPUT.write_text(rendered)
    print(f"wrote {OUTPUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
