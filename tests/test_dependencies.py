"""The installed package needs numpy and the standard library alone.

scipy, pytest and hypothesis are test dependencies: importing `sfekit` or
its command line in a fresh interpreter must load none of them, nor any
other third-party module.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# Modules a site hook loads at start-up are not the package's; count only
# what the imports add.
PROBE = """
import sys
before = set(sys.modules)
import sfekit, sfekit.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_importing_the_package_loads_only_numpy_and_the_standard_library():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["numpy", "sfekit"]
