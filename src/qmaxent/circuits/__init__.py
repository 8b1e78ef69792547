"""Access to the bundled circuit models (see README.md in this directory)."""

from functools import cache
from importlib import resources


@cache
def names() -> tuple[str, ...]:
    """Names of the bundled circuit models, listed once per process."""
    files = resources.files(__name__)
    return tuple(
        sorted(p.name[:-3] for p in files.iterdir() if p.name.endswith(".qc"))
    )


def load(name: str) -> str:
    """Text of a bundled circuit model."""
    if name not in names():
        raise KeyError(f"no bundled circuit {name!r}; have {names()}")
    return (resources.files(__name__) / f"{name}.qc").read_text()
