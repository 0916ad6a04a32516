"""Experiment configuration: the settings that can change a result.

Artifacts embed a hash of the configuration so a persisted config plus the
same inputs reproduce outputs byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    threads: int = 1
    output_dir: str = "."

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        data.pop("schema_version", None)
        return cls(**data)

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def default_output_dir() -> str:
    return os.environ.get("RESTRICTLAB_OUT", ".")


def artifact_envelope(config: ExperimentConfig, payload: dict) -> dict:
    """Wrap a payload with schema version, config hash, and seed."""
    return {"schema_version": SCHEMA_VERSION, "config_hash": config.hash(),
            "seed": config.seed, **payload}
