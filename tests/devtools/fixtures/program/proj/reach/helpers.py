"""RL105 negative: reached only through the package's re-export."""


def helper():
    """Return a constant."""
    return 1
