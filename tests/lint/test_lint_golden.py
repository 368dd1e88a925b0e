#!/usr/bin/env python3
"""Golden cases for the lint tooling (tools/lint/).

Each case materializes a miniature repository in a temp directory and runs
the real linter binaries against it, asserting both the exit code and that
the expected diagnostic is printed. This is the regression suite for the
linters themselves -- the C++ AllocGuard counterpart lives in
tests/test_alloc_guard.cpp.

Registered in ctest as `lint_golden`; also runnable directly:
    python3 tests/lint/test_lint_golden.py
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECK_LAYERS = REPO / "tools" / "lint" / "check_layers.py"
RUN_TIDY = REPO / "tools" / "lint" / "run_tidy.py"

MANIFEST = """\
[layers.common]
deps = []

[layers.la]
deps = ["common"]

[layers.ord]
deps = ["common", "la"]

[toplevel]
dirs = ["tests", "bench", "examples"]
"""

HDR = '#pragma once\n'


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def run_layers(root: Path, manifest: str = MANIFEST) -> subprocess.CompletedProcess:
    (root / "tools" / "lint").mkdir(parents=True, exist_ok=True)
    (root / "tools" / "lint" / "layers.toml").write_text(manifest, encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(CHECK_LAYERS), "--root", str(root)],
        capture_output=True, text=True)


class CheckLayersGolden(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_clean_tree_passes(self):
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/la/matrix.hpp": HDR + '#include "common/util.hpp"\n',
            "src/la/matrix.cpp": '#include "la/matrix.hpp"\n',
            "tests/test_matrix.cpp": '#include "la/matrix.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_forbidden_upward_include_fails(self):
        # la is below ord in the DAG; an la -> ord include is the canonical
        # layering break this linter exists to catch.
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/ord/ordering.hpp": HDR,
            "src/la/matrix.hpp": HDR + '#include "ord/ordering.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("layer 'la' may not include \"ord/ordering.hpp\"", proc.stdout)

    def test_unlisted_exception_header_fails(self):
        # An upward include from an implementation file is as forbidden as
        # one from a header: the graph is a strict DAG with no grants.
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/ord/ordering.hpp": HDR,
            "src/la/bridge.hpp": HDR,
            "src/la/bridge.cpp": '#include "la/bridge.hpp"\n#include "ord/ordering.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("layer 'la' may not include \"ord/ordering.hpp\"", proc.stdout)
        self.assertIn("upward edges are forbidden", proc.stdout)

    def test_manifest_with_exception_is_rejected(self):
        manifest = MANIFEST + """
[[exception]]
file = "src/la/bridge.cpp"
include = "ord/ordering.hpp"
justification = "golden case: grants are no longer part of the grammar"
"""
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/ord/ordering.hpp": HDR,
            "src/la/bridge.hpp": HDR,
            "src/la/bridge.cpp": '#include "la/bridge.hpp"\n#include "ord/ordering.hpp"\n',
        })
        proc = run_layers(self.root, manifest)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("declares [[exception]]", proc.stderr)

    def test_unknown_dep_manifest_exits_2(self):
        manifest = MANIFEST.replace('deps = ["common", "la"]', 'deps = ["common", "nosuch"]')
        write_tree(self.root, {"src/common/util.hpp": HDR})
        proc = run_layers(self.root, manifest)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unknown layer 'nosuch'", proc.stderr)

    def test_missing_manifest_exits_2(self):
        write_tree(self.root, {"src/common/util.hpp": HDR})
        proc = subprocess.run(
            [sys.executable, str(CHECK_LAYERS), "--root", str(self.root),
             "--manifest", str(self.root / "absent.toml")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("cannot read manifest", proc.stderr)

    def test_missing_pragma_once_fails(self):
        write_tree(self.root, {
            "src/common/util.hpp": "// no include guard of any kind\n",
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("lacks '#pragma once'", proc.stdout)

    def test_relative_include_fails(self):
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/la/matrix.hpp": HDR + '#include "../common/util.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("relative include", proc.stdout)

    def test_cpp_without_header_pair_fails(self):
        write_tree(self.root, {
            "src/la/orphan.cpp": "int la_orphan;\n",
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no header pair", proc.stdout)

    def test_real_repo_manifest_is_clean(self):
        # The repo itself must conform to its own committed manifest.
        proc = subprocess.run([sys.executable, str(CHECK_LAYERS)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class NolintDisciplineGolden(unittest.TestCase):
    def run_tidy_on(self, content: str) -> subprocess.CompletedProcess:
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "case.cpp"
            f.write_text(content, encoding="utf-8")
            return subprocess.run(
                [sys.executable, str(RUN_TIDY), str(f)],
                capture_output=True, text=True)

    def test_bare_nolint_fails(self):
        proc = self.run_tidy_on("int x = 0;  // NOLINT\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bare NOLINT", proc.stderr)

    def test_named_nolint_without_reason_fails(self):
        proc = self.run_tidy_on("int x = 0;  // NOLINT(bugprone-foo)\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bare NOLINT", proc.stderr)

    def test_block_suppression_fails(self):
        proc = self.run_tidy_on("// NOLINTBEGIN(bugprone-foo)\nint x = 0;\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("NOLINTBEGIN", proc.stderr)

    def test_named_nolint_with_reason_passes(self):
        proc = self.run_tidy_on(
            "int x = 0;  // NOLINT(bugprone-foo): golden case, sanctioned\n")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_repo_nolint_discipline_is_clean(self):
        proc = subprocess.run([sys.executable, str(RUN_TIDY)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
