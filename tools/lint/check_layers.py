#!/usr/bin/env python3
"""Layer-dependency linter: the machine check of the ARCHITECTURE.md graph.

Parses every `#include` edge under src/, tests/, bench/ and examples/ and
fails (exit 1) on:

  * an include edge between src/ layers that tools/lint/layers.toml does not
    permit -- the graph is a strict DAG, so there is no exception list;
  * a src/ file including from tests/, bench/ or examples/;
  * a relative (`"../"` or `"./"`) or non-layer-qualified project include;
  * an .hpp under src/ or bench/ without `#pragma once`;
  * a src/<layer>/<module>.cpp without its src/<layer>/<module>.hpp pair
    (one module = one file pair; header-only modules are fine).

Usage:
    tools/lint/check_layers.py [--root DIR] [--manifest FILE]

Exit codes: 0 clean, 1 violations (each printed as file:line: message),
2 bad manifest/usage (printed to stderr). A manifest naming an unknown
layer or declaring an `[[exception]]` table is a bad manifest.
"""

import argparse
import re
import sys
import tomllib
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
PROJECT_INCLUDE_RE = re.compile(r"^[a-z0-9_]+/[a-z0-9_]+\.hpp$")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")


def bad_input(message: str):
    """Exits 2: the manifest or the invocation is broken, not the tree."""
    print(f"check_layers: {message}", file=sys.stderr)
    sys.exit(2)


def parse_manifest(path: Path):
    try:
        with open(path, "rb") as f:
            doc = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        bad_input(f"cannot read manifest {path}: {e}")

    if "exception" in doc:
        bad_input(f"{path.name} declares [[exception]]: the layer graph is a strict "
                  f"DAG with no upward edges")

    layers = {}
    for name, entry in doc.get("layers", {}).items():
        deps = entry.get("deps")
        if not isinstance(deps, list):
            bad_input(f"[layers.{name}] needs a 'deps' list")
        layers[name] = set(deps)
    for name, deps in layers.items():
        for dep in deps:
            if dep not in layers:
                bad_input(f"[layers.{name}] depends on unknown layer '{dep}'")

    toplevel = set(doc.get("toplevel", {}).get("dirs", []))
    return layers, toplevel


def scan_includes(path: Path):
    """Yields (line_number, include_target) for every quoted include."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        bad_input(f"cannot read {path}: {e}")
    for i, line in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m:
            yield i, m.group(1)


def has_pragma_once(path: Path) -> bool:
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        if PRAGMA_ONCE_RE.match(line):
            return True
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels above this script)")
    ap.add_argument("--manifest", type=Path, default=None,
                    help="layer manifest (default: ROOT/tools/lint/layers.toml)")
    args = ap.parse_args()

    root = args.root.resolve()
    manifest = args.manifest or root / "tools" / "lint" / "layers.toml"
    layers, toplevel = parse_manifest(manifest)

    violations = []

    files = []
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(sorted(base.rglob("*.hpp")))
            files.extend(sorted(base.rglob("*.cpp")))

    known_headers = {f"{p.parent.name}/{p.name}"
                     for p in (root / "src").rglob("*.hpp")}

    for path in files:
        rel = path.relative_to(root).as_posix()
        top = rel.split("/", 1)[0]
        in_src = top == "src"
        layer = path.parent.name if in_src else None

        if in_src and layer not in layers:
            violations.append(f"{rel}:1: layer '{layer}' is not declared in {manifest.name}")
            continue

        if path.suffix == ".hpp" and top in ("src", "bench") and not has_pragma_once(path):
            violations.append(f"{rel}:1: header lacks '#pragma once'")

        if in_src and path.suffix == ".cpp":
            if not path.with_suffix(".hpp").is_file():
                violations.append(
                    f"{rel}:1: module has no header pair "
                    f"(expected {rel[:-4]}.hpp; one module = one .hpp/.cpp pair)")

        for lineno, inc in scan_includes(path):
            if inc.startswith(("../", "./")) or "/../" in inc:
                violations.append(f"{rel}:{lineno}: relative include \"{inc}\"")
                continue
            if inc not in known_headers:
                if PROJECT_INCLUDE_RE.match(inc) and inc.split("/")[0] in layers:
                    violations.append(
                        f"{rel}:{lineno}: include \"{inc}\" names no header under src/")
                elif in_src and "/" in inc and not PROJECT_INCLUDE_RE.match(inc):
                    violations.append(
                        f"{rel}:{lineno}: project include \"{inc}\" is not of the "
                        f"form \"layer/module.hpp\"")
                # Anything else quoted ("gtest/gtest.h", bench_env.hpp from
                # bench/'s own dir) is outside the layer graph.
                continue

            target_layer = inc.split("/")[0]
            if not in_src:
                if top in toplevel:
                    continue  # toplevel dirs may include any layer
                violations.append(
                    f"{rel}:{lineno}: directory '{top}' is not granted library access "
                    f"in {manifest.name}")
                continue

            # src -> src edge: must be same-layer or permitted.
            if target_layer != layer and target_layer not in layers[layer]:
                violations.append(
                    f"{rel}:{lineno}: layer '{layer}' may not include \"{inc}\" "
                    f"(allowed: {', '.join(sorted(layers[layer])) or 'nothing'}; "
                    f"upward edges are forbidden)")

    if violations:
        for v in violations:
            print(v)
        print(f"\ncheck_layers: {len(violations)} violation(s) against {manifest}",
              file=sys.stderr)
        return 1
    print(f"check_layers: OK -- {len(files)} files, layer graph conforms to "
          f"{manifest.relative_to(root) if manifest.is_relative_to(root) else manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
