"""Package metadata for the ACC Saturator reproduction.

This file is the project's only packaging metadata (there is no
``pyproject.toml``); ``pip install -e .`` works through it on offline
machines where PEP 660 editable builds are unavailable.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # numpy backs the e-graph's columnar core, the interpreter and the GPU
    # model.  scipy stays optional: only the ILP extractor imports it.
    install_requires=["numpy"],
)
