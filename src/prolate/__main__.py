"""``python -m prolate``: the command line, ended by `prolate.cli.exit_main`."""
from .cli import exit_main

if __name__ == "__main__":
    exit_main()
