"""``python -m kflow``: the kflow command line (``kflow.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
