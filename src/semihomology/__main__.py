"""``python -m semihomology``: the ``semihomology`` command."""

import sys

from .cli import main

sys.exit(main())
