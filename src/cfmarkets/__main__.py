"""`python -m cfmarkets run|check ...`: the `cfmarkets` command."""

import sys

from .cli import main

sys.exit(main())
