"""Versioned prompt texts for the chat-backed backends.

Each prompt lives in its own file named <name>.<version>.txt. Bumping a
prompt means adding a new file and updating VERSIONS; traces record the
version map so any run can be tied back to the exact wording it used.
"""

from __future__ import annotations

from importlib import resources

VERSIONS = {
    "extract_pattern": "v1",
    "classify_attribute": "v1",
    "simplify_question": "v1",
    "fallback_plan": "v1",
    "judge": "v1",
}


def load(name: str) -> str:
    """Text of the current version of a prompt."""
    if name not in VERSIONS:
        raise KeyError(f"unknown prompt {name!r}")
    return resources.files(__package__).joinpath(f"{name}.{VERSIONS[name]}.txt").read_text()
