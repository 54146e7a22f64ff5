"""The exception types that callers tell apart, one per CLI exit code.

A caller's bad argument is a plain ValueError (exit 1, like a usage error).
Input data the pipeline cannot use is a DataError (exit 2); the subclasses
below carry fields that callers read.  A simulated collision is
CollisionDetected (exit 3).
"""
from __future__ import annotations


class DataError(Exception):
    """Malformed or unusable input data (CLI exit code 2)."""


class UnparsableField(DataError):
    def __init__(self, row: int, column: str):
        super().__init__(f"unparsable value in data row {row}, column {column}")
        self.row = row
        self.column = column


class DuplicateFrame(DataError):
    def __init__(self, vehicle_id: int, frame_id: int):
        super().__init__(f"vehicle {vehicle_id} has duplicate frame {frame_id}")
        self.vehicle_id = vehicle_id
        self.frame_id = frame_id


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
