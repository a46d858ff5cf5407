"""RL105 positive: re-exported by its package, imported by no root."""


def unused():
    """Return a constant nobody asks for."""
    return 3
