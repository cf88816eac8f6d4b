"""``python -m pqcdiag``: the command-line front end, :func:`cli.main`."""

import sys

from .cli import main

sys.exit(main())
