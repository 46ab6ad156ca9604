"""Legacy setup shim for offline editable installs.

Without network access pip cannot install this project in editable
mode: ``pip install -e .`` has to download ``setuptools>=64`` into an
isolated build environment, and ``--no-build-isolation`` or
``--no-use-pep517`` fail because the ``wheel`` package is not installed.
``python setup.py develop`` uses the installed setuptools directly and
works offline. Metadata lives in pyproject.toml.
"""
from setuptools import setup

setup()
