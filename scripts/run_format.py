#!/usr/bin/env python3
"""run_format.py: formatting gate for the pdc tree.

Checks or rewrites every C++ file against the committed .clang-format.
Without clang-format (clang-format or clang-format-14..20 on PATH) it
exits 2 and names the missing tool; CI installs it.

Usage:
    run_format.py --check [paths...]    report violations, exit 1 if any
    run_format.py --fix   [paths...]    rewrite files in place
                                        default paths: src examples bench
                                        tests scripts-adjacent fixtures

Exit status: 0 clean, 1 violations found (--check) , 2 setup error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")
DEFAULT_PATHS = ["src", "examples", "bench", "tests"]

FORMAT_CANDIDATES = ["clang-format"] + [f"clang-format-{v}" for v in
                                        range(20, 13, -1)]


def find_clang_format():
    for name in FORMAT_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def cxx_files(paths):
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, name)
        elif os.path.isfile(p):
            yield p
        else:
            sys.exit(f"run_format: no such file or directory: {p}")


def clang_format_mode(tool, files, fix):
    bad = []
    for path in files:
        if fix:
            subprocess.run([tool, "-i", path], check=True)
        else:
            proc = subprocess.run([tool, "--dry-run", "-Werror", path],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                bad.append(path)
                sys.stdout.write(proc.stderr)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run_format.py")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--fix", action="store_true")
    parser.add_argument("paths", nargs="*", default=None)
    args = parser.parse_args(argv)

    paths = args.paths or [os.path.join(REPO_ROOT, p)
                           for p in DEFAULT_PATHS]
    files = list(cxx_files(paths))
    if not files:
        sys.exit("run_format: no C++ files found")

    tool = find_clang_format()
    if not tool:
        print("run_format: clang-format not found on PATH", file=sys.stderr)
        return 2
    bad = clang_format_mode(tool, files, args.fix)

    verb = "fixed" if args.fix else "flagged"
    print(f"run_format: {len(files)} file(s), {len(bad)} {verb}",
          file=sys.stderr)
    return 1 if (bad and not args.fix) else 0


if __name__ == "__main__":
    sys.exit(main())
