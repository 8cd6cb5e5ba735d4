"""``python -m finkit``: the finkit command."""

from finkit.cli import main

if __name__ == "__main__":
    main()
