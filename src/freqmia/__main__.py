"""``python -m freqmia``: the same command line as the ``freqmia`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
