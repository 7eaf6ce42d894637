"""Setup shim for legacy editable installs (no `wheel` package offline)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    # PEP 561: inline annotations are part of the public API; the
    # marker lets downstream type checkers consume them.
    package_data={"repro": ["py.typed"]},
)
