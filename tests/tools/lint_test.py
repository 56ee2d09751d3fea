#!/usr/bin/env python3
"""Unit tests for tools/lint.py's one-isa-dispatch rule: `target_clones` is
a violation anywhere under src/, and target pragmas and attributes are
allowed in src/tensor/kernels.cpp only."""

import importlib.util
import pathlib
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "lint.py"
spec = importlib.util.spec_from_file_location("lint", TOOL)
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)

RULE = "one-isa-dispatch"


class OneIsaDispatchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self._saved = (lint.REPO, lint.SRC, lint.ISA_DISPATCH_FILE)
        lint.REPO = root
        lint.SRC = root / "src"
        lint.ISA_DISPATCH_FILE = lint.SRC / "tensor" / "kernels.cpp"

    def tearDown(self):
        lint.REPO, lint.SRC, lint.ISA_DISPATCH_FILE = self._saved
        self._tmp.cleanup()

    def violations(self, rel, text):
        path = lint.REPO / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return [e for e in lint.lint_file(path) if f"[{RULE}]" in e]

    def test_target_clones_is_banned_everywhere(self):
        clones = '__attribute__((target_clones("arch=x86-64-v3")))\n'
        for rel in ("src/tensor/im2col.cpp", "src/tensor/kernels.cpp"):
            self.assertEqual(len(self.violations(rel, clones)), 1, rel)
        # Raw lines, comments included.
        self.assertEqual(
            len(self.violations("src/tensor/arena.h", "// target_clones\n")), 1)

    def test_target_pragma_only_in_kernels_cpp(self):
        text = ('#pragma GCC push_options\n'
                '#pragma GCC target("arch=x86-64-v3")\n'
                '#pragma GCC pop_options\n')
        self.assertEqual(self.violations("src/tensor/kernels.cpp", text), [])
        found = self.violations("src/tensor/vecops.cpp", text)
        self.assertEqual(len(found), 1)
        self.assertIn("src/tensor/vecops.cpp:2:", found[0])

    def test_target_attribute_only_in_kernels_cpp(self):
        text = '__attribute__((target("arch=x86-64-v4"))) void f();\n'
        self.assertEqual(self.violations("src/tensor/kernels.cpp", text), [])
        self.assertEqual(len(self.violations("src/comm/message.cpp", text)), 1)

    def test_gnu_target_attribute_only_in_kernels_cpp(self):
        text = '[[gnu::target("avx2")]] void f();\n'
        self.assertEqual(self.violations("src/tensor/kernels.cpp", text), [])
        self.assertEqual(len(self.violations("src/nn/dense.h", text)), 1)

    def test_other_target_words_pass(self):
        text = ("// the target accuracy\n"
                "double target(double x);\n"
                "const double t = target(1.0);\n")
        self.assertEqual(self.violations("src/fl/trainer.cpp", text), [])


if __name__ == "__main__":
    unittest.main()
