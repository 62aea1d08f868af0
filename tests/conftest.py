"""Loads murmurations before any test module can load numpy, so OpenBLAS
starts with the package's idle-wait setting (see murmurations/__init__.py)
whichever test file is collected first."""

import murmurations  # noqa: F401
