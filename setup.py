"""Setuptools entry point.

Keeps the packaging metadata minimal and offline-friendly: the dependency
set is exactly what ``import repro`` loads — ``networkx`` for the host
graphs and ``numpy`` for the expander generators, the memmap CSR files and
the vectorised kernel.
"""

from setuptools import find_packages, setup

setup(
    name="repro-strong-decomposition",
    version="0.5.0",
    description=(
        "Reproduction of 'Strong-Diameter Network Decomposition' (PODC 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["networkx", "numpy"],
    entry_points={
        "console_scripts": ["repro-decompose = repro.cli:main"],
    },
)
