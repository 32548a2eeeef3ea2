"""``python -m weylkit``: the same command line as the ``weylkit`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
