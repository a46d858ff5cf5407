"""RL105 negative: reached through the package's registration import."""

REGISTERED = ("plugin",)
