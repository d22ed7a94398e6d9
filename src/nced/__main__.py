"""The process entry of ``python -m nced`` and of the ``nced`` script."""

import gc
import sys

from .cli import main


def run():
    """Run ``main`` on ``sys.argv`` and return its exit code, with every
    object it left tracked frozen for interpreter teardown.

    At exit CPython runs full garbage collections over the tens of thousands
    of objects that numpy, PyYAML and nced leave tracked; the collections at
    finalization skip the permanent generation that ``gc.freeze`` moves them
    to. The exit itself stays the normal one: stdio is flushed and atexit
    handlers run. ``main`` stays the in-process API and leaves the collector
    alone.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
