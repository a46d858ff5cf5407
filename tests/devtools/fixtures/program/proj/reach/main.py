"""RL105 root: the fixture's one declared entry point."""

from proj.reach import helper


def run():
    """Use a re-exported name and a lazily imported one."""
    from proj.reach.lazy import deferred

    return helper() + deferred()
