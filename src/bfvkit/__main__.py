"""``python -m bfvkit``: the command line interface of :mod:`bfvkit.cli`."""

import sys

from .cli import main

sys.exit(main())
