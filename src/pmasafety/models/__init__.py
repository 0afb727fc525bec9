"""Bundled example models."""

from importlib import resources


def fixture_text(name: str) -> str:
    """Source text of a bundled model, e.g. fixture_text('cannon')."""
    return (resources.files(__name__) / f"{name}.pmas").read_text()
