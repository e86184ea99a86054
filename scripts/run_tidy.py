#!/usr/bin/env python3
"""run_tidy.py: drive clang-tidy over the project's translation units.

Reads compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is on), keeps
a content-hash result cache so unchanged files cost nothing (CI keys an
actions/cache on the cache directory), and runs TUs in parallel.

Without clang-tidy (clang-tidy or clang-tidy-14..20 on PATH) the driver
exits 2 and names the missing tool; CI installs it.

Usage:
    run_tidy.py [paths...]          default: src examples bench
    --build-dir DIR                 compile_commands.json location
                                    (default: build)
    --cache-dir DIR                 result cache (default: .tidy-cache)
    --no-cache                      ignore and do not write the cache
    --jobs N                        parallel TUs (default: cpu count)
    --log-dir DIR                   write per-file finding logs here

Exit status: 0 clean, 1 findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TIDY_CANDIDATES = ["clang-tidy"] + [f"clang-tidy-{v}" for v in
                                    range(20, 13, -1)]


def find_tool(candidates):
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


def tool_version(path):
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.stdout else path
    except OSError:
        return path


def load_compile_commands(build_dir):
    db = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db):
        sys.exit(f"run_tidy: {db} not found; configure with cmake first "
                 "(CMAKE_EXPORT_COMPILE_COMMANDS is on by default)")
    with open(db, encoding="utf-8") as f:
        return json.load(f), db


def wanted(path, roots):
    rel = os.path.relpath(path, REPO_ROOT)
    return any(rel == r or rel.startswith(r + os.sep) for r in roots)


def cache_key(source_path, extra: bytes):
    h = hashlib.sha256()
    h.update(extra)
    with open(source_path, "rb") as f:
        h.update(f.read())
    # Headers the TU pulls in are not hashed; the .clang-tidy hash plus
    # the per-PR cache key in CI (keyed on the tree) bounds the staleness.
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run_tidy.py")
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT,
                                                            "build"))
    parser.add_argument("--cache-dir", default=os.path.join(REPO_ROOT,
                                                            ".tidy-cache"))
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--log-dir", default=None)
    args = parser.parse_args(argv)

    tidy = find_tool(TIDY_CANDIDATES)
    if not tidy:
        print("run_tidy: clang-tidy not found on PATH", file=sys.stderr)
        return 2
    roots = args.paths or ["src", "examples", "bench"]
    entries, _ = load_compile_commands(args.build_dir)
    entries = [e for e in entries if wanted(e["file"], roots)]
    if not entries:
        sys.exit(f"run_tidy: no translation units under {roots}")
    config_path = os.path.join(REPO_ROOT, ".clang-tidy")
    with open(config_path, "rb") as f:
        salt = tool_version(tidy).encode() + f.read()

    if args.log_dir:
        os.makedirs(args.log_dir, exist_ok=True)
    if not args.no_cache:
        os.makedirs(args.cache_dir, exist_ok=True)

    def check_one(entry):
        src = entry["file"]
        rel = os.path.relpath(src, REPO_ROOT)
        key = cache_key(src, salt)
        marker = os.path.join(args.cache_dir, key + ".ok")
        if not args.no_cache and os.path.exists(marker):
            return rel, 0, "(cached)"
        cmd = [tidy, f"--config-file={config_path}", "-p",
               args.build_dir, "--quiet", src]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=entry.get("directory", REPO_ROOT))
        # clang-tidy exits 0 with suppressed-warning chatter on stderr;
        # real findings appear on stdout as file:line: warning/error.
        noise = re.compile(r"warning(s)? generated|Suppressed \d+ warning")
        output = "\n".join(
            line for line in (proc.stdout + proc.stderr).splitlines()
            if line.strip() and not noise.search(line))
        failed = proc.returncode != 0
        if not failed and not args.no_cache:
            with open(marker, "w", encoding="utf-8") as f:
                f.write(rel + "\n")
        return rel, proc.returncode, output if failed else ""

    findings = 0
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for rel, rc, output in pool.map(check_one, entries):
            status = "ok" if rc == 0 else "FINDINGS"
            tag = " (cached)" if output == "(cached)" else ""
            print(f"run_tidy {rel}: {status}{tag}")
            if rc != 0:
                findings += 1
                print(output)
                if args.log_dir:
                    log = os.path.join(
                        args.log_dir, rel.replace(os.sep, "__") + ".log")
                    with open(log, "w", encoding="utf-8") as f:
                        f.write(output + "\n")
    print(f"run_tidy: {len(entries)} TU(s), {findings} with findings",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
