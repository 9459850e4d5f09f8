"""CLI: ``python -m repro.eval [--full] [--output scorecard.json]``."""

import sys

from .scorecard import main

sys.exit(main())
