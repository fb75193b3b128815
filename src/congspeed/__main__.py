"""`python -m congspeed`: the command-line interface."""

from .cli import entrypoint

entrypoint()
