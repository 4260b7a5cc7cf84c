"""Run the command-line surface as ``python -m mideriv``."""
import sys

from .cli import main

sys.exit(main())
