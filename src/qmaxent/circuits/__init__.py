"""Access to the bundled circuit models (see README.md in this directory).

The models are the ``.qc`` resources of this package, found through
``importlib.resources`` once per process, so that they load from any
package loader, a zip file included. A model on disk is an
``os.PathLike`` resource, which ``qmaxent.cli`` reads as it reads any
file; ``load`` reads a model through its loader.
"""

from functools import cache
from importlib import resources


@cache
def _files():
    """The package's resource directory, looked up once per process."""
    return resources.files(__name__)


@cache
def names() -> tuple[str, ...]:
    """Names of the bundled circuit models, listed once per process."""
    return tuple(sorted(p.name[:-3] for p in _files().iterdir() if p.name.endswith(".qc")))


def resource(name: str):
    """The resource of a bundled circuit model."""
    if name not in names():
        raise KeyError(f"no bundled circuit {name!r}; have {names()}")
    return _files() / f"{name}.qc"


def load(name: str) -> str:
    """Text of a bundled circuit model."""
    return resource(name).read_text()
