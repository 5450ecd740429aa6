"""`python -m hrx ...` runs the command line, as the `hrx` script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
