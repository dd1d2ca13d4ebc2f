"""``python -m bperc``: the ``bperc`` command line."""
import sys

from .cli import main

sys.exit(main())
