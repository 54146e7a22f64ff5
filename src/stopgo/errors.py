"""The exception types that callers tell apart, one per CLI exit code.

A caller's bad argument is a plain ValueError (exit 1, like a usage error).
Input data the pipeline cannot use is a DataError (exit 2), whose message
names what is wrong: the file, row and column, or the vehicle and frame.
A simulated collision is CollisionDetected (exit 3).
"""
from __future__ import annotations


class DataError(Exception):
    """Malformed or unusable input data (CLI exit code 2)."""


class CollisionDetected(Exception):
    """A simulated gap (spacing minus the length of the vehicle ahead) became
    nonpositive (CLI exit code 3).

    Carries the offending vehicle index and frame plus every trajectory cut
    at that frame, so callers can dump the partial run.
    """

    def __init__(self, vehicle_index: int, frame: int, partial=None):
        super().__init__(
            f"vehicle {vehicle_index} gap nonpositive at frame {frame}"
        )
        self.vehicle_index = vehicle_index
        self.frame = frame
        self.partial = partial
