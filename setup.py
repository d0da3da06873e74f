"""Setuptools entry point: the package's only build configuration.

There is no ``pyproject.toml``, so ``pip install -e .`` builds with the
installed setuptools and works in offline environments where build
isolation cannot download setuptools/wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="4.0.0",
    description=(
        "CrowdFusion: a crowdsourced approach on data fusion refinement "
        "(ICDE 2017) — full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    extras_require={
        "dev": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0"],
    },
    entry_points={"console_scripts": ["crowdfusion = repro.cli:main"]},
)
