"""`python -m twjscc`: the command-line interface of twjscc.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
