"""The one exception type the package defines.

A caller's bad argument is a plain ValueError (exit 1, like a usage error).
Input data the pipeline cannot use is a DataError (exit 2), whose message
names what is wrong: the file, row and column, or the vehicle and frame.
A simulated collision is no exception but a value: string_gaps returns a
string's first one, and the simulate stage exits 3 on it.
"""
from __future__ import annotations


class DataError(Exception):
    """Malformed or unusable input data (CLI exit code 2)."""
