#!/usr/bin/env python3
"""Relative-link and source-path checker for the documentation handbook.

Scans ARCHITECTURE.md, everything under docs/, every crate README
(crates/*/src/README.md and crates/*/README.md), and the vendor README
for markdown links `[text](target)`. External links (http/https/mailto)
are skipped; every other target must resolve — after stripping a
`#anchor` suffix — to an existing file or directory relative to the
file containing the link.

It also checks every inline code span that is a source path alone — one
under crates/, src/, tests/, tools/, programs/ or examples/, optionally
followed by `:line` or `:line-line` — such as `crates/core/src/csr.rs:28`.
The path must name an existing file or directory, resolved against the
repository root or else against the root of the crate the document
belongs to (so `tests/error_corpus.rs` in crates/syntax/src/README.md is
crates/syntax/tests/error_corpus.rs), and a line reference must lie
inside the file. Exit code 1 lists every broken link and path.

Run from the repository root: `python3 tools/check_links.py`.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `[text](target)` — good enough for the hand-written markdown in this
# repo; inline code spans are masked out first so `vec![..](..)`-style
# Rust snippets are not misread as links.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`[^`]*`")
FENCE = re.compile(r"^(```|~~~)")
# A code span holding a source path and nothing else.
SOURCE_PATH = re.compile(
    r"`((?:crates|src|tests|tools|programs|examples)/[^`\s:*]+)(?::(\d+)(?:-(\d+))?)?`"
)


def doc_files():
    files = [ROOT / "ARCHITECTURE.md"]
    files += sorted((ROOT / "docs").rglob("*.md"))
    files += sorted(ROOT.glob("crates/*/README.md"))
    files += sorted(ROOT.glob("crates/*/src/README.md"))
    files += sorted(ROOT.glob("crates/vendor/README.md"))
    return [f for f in files if f.is_file()]


def prose_lines(path: Path):
    """The lines outside fenced code blocks, numbered from 1."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def links_in(path: Path):
    for lineno, line in prose_lines(path):
        for match in LINK.finditer(CODE_SPAN.sub("", line)):
            yield lineno, match.group(1)


def crate_root(path: Path) -> Path:
    """The crate a document belongs to: `crates/<name>`, else the root."""
    parts = path.relative_to(ROOT).parts
    if len(parts) > 2 and parts[0] == "crates":
        return ROOT / parts[0] / parts[1]
    return ROOT


def path_problem(doc: Path, rel: str, first, last):
    """Why the source path `rel` (lines `first..=last`) does not resolve
    from `doc`, or None."""
    for base in (ROOT, crate_root(doc)):
        target = base / rel
        if target.exists():
            break
    else:
        return "no such file"
    if first is None:
        return None
    if not target.is_file():
        return "a line of a directory"
    lines = len(target.read_text(errors="replace").splitlines())
    if not 1 <= int(first) <= int(last or first) <= lines:
        return f"past the end ({lines} lines)"
    return None


def main() -> int:
    broken = []
    checked = 0
    files = doc_files()
    if not files:
        print("check_links: no documentation files found", file=sys.stderr)
        return 1
    for f in files:
        for lineno, target in links_in(f):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (f.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(f"{f.relative_to(ROOT)}:{lineno}: broken link -> {target}")
    paths = 0
    for f in files:
        for lineno, line in prose_lines(f):
            for match in SOURCE_PATH.finditer(line):
                paths += 1
                problem = path_problem(f, *match.groups())
                if problem:
                    broken.append(
                        f"{f.relative_to(ROOT)}:{lineno}: stale path ({problem}) -> {match.group(0)}"
                    )
    for line in broken:
        print(line, file=sys.stderr)
    print(
        f"check_links: {len(files)} files, {checked} relative links, "
        f"{paths} source paths, {len(broken)} broken"
    )
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
