"""``python -m cmtop``: the command line that the ``cmtop`` script runs."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
