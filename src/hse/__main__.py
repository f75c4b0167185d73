"""python -m hse: the command-line interface of hse.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
