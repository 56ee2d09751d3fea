#!/usr/bin/env python3
"""Unit tests for two of tools/lint.py's rules.

one-isa-dispatch: `target_clones` is a violation anywhere under src/, and
target pragmas and attributes are allowed in src/tensor/kernels.cpp only.

aligned-hot-buffers: a std::vector<double> member in the files that hold
kernel-operand storage (Dataset, SolverWorkspace, Sequential's workspace,
nn's EvalScratch, the kernels' per-thread scratch) is a violation; those
buffers are tensor::AlignedVector."""

import importlib.util
import pathlib
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "lint.py"
spec = importlib.util.spec_from_file_location("lint", TOOL)
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)

REAL_SRC = lint.SRC


class LintFixture(unittest.TestCase):
    """Points the linter at a temporary tree of one-file fixtures."""

    RULE = ""

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
        return [e for e in lint.lint_file(path) if f"[{self.RULE}]" in e]


class OneIsaDispatchTest(LintFixture):
    RULE = "one-isa-dispatch"

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


HOT_HEADERS = ("src/data/dataset.h", "src/opt/workspace.h",
               "src/nn/sequential.h")


class AlignedHotBuffersTest(LintFixture):
    RULE = "aligned-hot-buffers"

    def test_vector_double_member_in_hot_headers(self):
        for rel in HOT_HEADERS:
            for text in ("  std::vector<double> features_;\n",
                         "  std::vector<double> v{};\n",
                         "  std::vector<std::vector<double>> grads;  // x\n"):
                self.assertEqual(len(self.violations(rel, text)), 1,
                                 f"{rel}: {text!r}")

    def test_aligned_members_signatures_and_comments_pass(self):
        text = ("  tensor::AlignedVector<double> features_;\n"
                "  std::vector<tensor::AlignedVector<double>> grads;\n"
                "  void f(std::vector<double>& out);\n"
                "  std::vector<double> g(std::size_t n) const;\n"
                "  // std::vector<double> x; would straddle lines\n")
        for rel in HOT_HEADERS:
            self.assertEqual(self.violations(rel, text), [], rel)

    def test_other_files_pass(self):
        text = "  std::vector<double> w_;\n"
        for rel in ("src/fl/trainer.cpp", "src/data/synthetic.h",
                    "src/nn/model.h"):
            self.assertEqual(self.violations(rel, text), [], rel)

    def test_kernel_scratch_files(self):
        # The thread_local scratch the GEMM, conv and dense kernels take
        # through tensor::scratch(), wherever it is declared in the file.
        for rel in ("src/tensor/kernels.cpp", "src/nn/conv2d.cpp",
                    "src/nn/dense.cpp"):
            bad = ("namespace {\n"
                   "thread_local std::vector<double> tls_cols;\n"
                   "}\n"
                   "void f() {\n"
                   "  thread_local std::vector<double> b_panel_buf;\n"
                   "}\n")
            found = self.violations(rel, bad)
            self.assertEqual(len(found), 2, rel)
            self.assertIn(f"{rel}:2:", found[0])
            self.assertIn(f"{rel}:5:", found[1])
            good = ("thread_local tensor::AlignedVector<double> tls_cols;\n"
                    "  thread_local AlignedVector<double> a_pack_buf;\n"
                    "  const auto a_pack = scratch(a_pack_buf, m * k);\n")
            self.assertEqual(self.violations(rel, good), [], rel)

    def test_feedforward_only_inside_eval_scratch(self):
        text = ("struct EvalScratch {\n"
                "  Sequential::Workspace ws;\n"
                "  std::vector<double> xbuf;\n"
                "};\n"
                "void f() {\n"
                "  std::vector<double> local;\n"
                "}\n")
        found = self.violations("src/nn/feedforward.cpp", text)
        self.assertEqual(len(found), 1)
        self.assertIn("src/nn/feedforward.cpp:3:", found[0])


class AlignedHotBuffersTreeTest(unittest.TestCase):
    """The repository's own files hold no unaligned kernel-operand
    member."""

    def test_tree_keeps_hot_buffers_aligned(self):
        for rel in lint.HOT_BUFFER_FILES:
            found = [e for e in lint.lint_file(REAL_SRC / rel)
                     if "[aligned-hot-buffers]" in e]
            self.assertEqual(found, [], rel)


if __name__ == "__main__":
    unittest.main()
