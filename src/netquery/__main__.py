"""`python -m netquery`: the command-line front end, as the `netquery`
script runs it."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
