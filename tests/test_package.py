"""The package's public names."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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

    def test_building_states_loads_only_states(self):
        # a fresh interpreter: this one has loaded every submodule
        script = textwrap.dedent("""
            import sys

            from spptkit import states

            print(sorted(name for name in sys.modules if name.startswith("spptkit")))
            print("argparse" in sys.modules)
            import spptkit
            print(set(spptkit.__all__) <= set(dir(spptkit)))
            print(spptkit.classify(states.horodecki_2x4(0.5)).classification)
            print(spptkit.classify is spptkit.separability.classify)
        """)
        src = str(Path(spptkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out == [str(["spptkit", "spptkit.errors", "spptkit.linalg", "spptkit.states"]),
                       "False", "True", separability.ENTANGLED_RANGE, "True"]


class TestCodeLines:
    def test_counts_code_not_comments_or_docstrings(self):
        source = ('"""Module\ndocstring."""\n# a comment\n\n'
                  'class A:\n    """Class docstring."""\n\n'
                  '    def f(self, x):\n        """Function\n        docstring."""\n'
                  '        y = """a string\n        on two lines"""\n'
                  '        return x  # trailing\n')
        # class A, def f, the two lines of y and the return
        assert code_lines(source) == 5
