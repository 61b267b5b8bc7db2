"""The package's public names."""

import spptkit
from spptkit import range_criterion, separability, sppt

from code_lines import code_lines

# Public paths that classify never took, removed with their callers moved to
# the paths it takes.
REMOVED = ((range_criterion, "product_vectors_in_range"), (range_criterion, "kernel_basis"),
           (separability, "decompose_full_rank"), (sppt, "extract_factors_full_rank"))


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        assert [name for name in spptkit.__all__ if not hasattr(spptkit, name)] == []
        assert len(set(spptkit.__all__)) == len(spptkit.__all__)

    def test_star_import(self):
        namespace = {}
        exec("from spptkit import *", namespace)
        assert set(spptkit.__all__) <= namespace.keys()

    def test_removed_paths_are_gone(self):
        for module, name in REMOVED:
            assert name not in spptkit.__all__
            assert not hasattr(spptkit, name) and not hasattr(module, name), name


class TestCodeLines:
    def test_counts_code_not_comments_or_docstrings(self):
        source = ('"""Module\ndocstring."""\n# a comment\n\n'
                  'class A:\n    """Class docstring."""\n\n'
                  '    def f(self, x):\n        """Function\n        docstring."""\n'
                  '        y = """a string\n        on two lines"""\n'
                  '        return x  # trailing\n')
        # class A, def f, the two lines of y and the return
        assert code_lines(source) == 5
