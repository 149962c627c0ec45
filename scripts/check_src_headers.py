#!/usr/bin/env python3
"""Fails when a header under src/ is used only by tests.

Every src/**/*.h must be #included by some .cc, .h or .cpp file under src/,
benchmarks/ or examples/ other than its own .cc (the .cc next to it with the
same stem). A header that only tests/ reaches is code kept alive by its own
unit tests; delete it or give it a caller.

Usage: python3 scripts/check_src_headers.py [REPO_ROOT]
Exit status is 0 when every header has a caller and 1 otherwise, with one
line per orphaned header (path relative to src/).
"""
import os
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SCANNED_DIRS = ("src", "benchmarks", "examples")
SOURCE_SUFFIXES = (".cc", ".h", ".cpp")


def source_files(root, top):
    """Yields every source file under root/top, skipping hidden directories
    (build trees such as benchmarks/e2e/.build)."""
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, name)


def resolve(root, includer, spelled):
    """The file an #include "spelled" in `includer` names: the includer's own
    directory first, then src/ and the repository root (the build's include
    paths). None when no such file exists."""
    for base in (os.path.dirname(includer), os.path.join(root, "src"), root):
        path = os.path.normpath(os.path.join(base, spelled))
        if os.path.isfile(path):
            return path
    return None


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    src = os.path.join(root, "src")
    headers = [p for p in source_files(root, "src") if p.endswith(".h")]
    used = set()
    for top in SCANNED_DIRS:
        for includer in source_files(root, top):
            with open(includer, encoding="utf-8") as f:
                text = f.read()
            for spelled in INCLUDE.findall(text):
                target = resolve(root, includer, spelled)
                if target is None:
                    continue
                own_cc = os.path.splitext(target)[0] + ".cc"
                if includer not in (target, own_cc):
                    used.add(target)
    orphans = [os.path.relpath(h, src) for h in headers if h not in used]
    for orphan in orphans:
        print(f"{orphan}: included only by tests or its own .cc")
    if orphans:
        return 1
    print(f"ok: all {len(headers)} src/ headers have a caller outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
