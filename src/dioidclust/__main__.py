"""``python -m dioidclust``: the same command line as the ``dioidclust`` script."""

from .cli import entrypoint

entrypoint()
