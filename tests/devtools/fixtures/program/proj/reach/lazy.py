"""RL105 negative: reached through a function-level import."""


def deferred():
    """Return a constant."""
    return 2
