import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# The CLI tests start `python -m cakelab` in subprocesses; let them import
# the package from this checkout's src/ as the test process does.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
