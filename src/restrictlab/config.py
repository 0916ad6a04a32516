"""Artifact envelope: the seed is the one setting that can change a result.

Artifacts embed a hash of the schema version and the seed, so the same seed
plus the same inputs reproduce outputs byte-identically.  Thread count and
output directory change no result and are not hashed.
"""

from __future__ import annotations

import hashlib
import json
import os

SCHEMA_VERSION = 1


def default_output_dir() -> str:
    return os.environ.get("RESTRICTLAB_OUT", ".")


def artifact_envelope(seed: int, payload: dict) -> dict:
    """Wrap a payload with schema version, config hash, and seed."""
    canon = json.dumps({"schema_version": SCHEMA_VERSION, "seed": seed}, sort_keys=True)
    return {"schema_version": SCHEMA_VERSION,
            "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
            "seed": seed, **payload}
