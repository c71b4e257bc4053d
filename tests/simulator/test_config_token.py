"""Checkpoint config tokens stay byte-stable across releases.

A checkpoint restores only into a system whose ``config_token``
matches the one it was saved under, so any change to how a
:class:`SystemConfig` is rendered would orphan every checkpoint
written before it.  These digests were captured from the release
that still carried a ``SystemConfig.engine`` field; the object-engine
tokens must not move.
"""

from repro.simulator import SystemConfig
from repro.simulator.checkpoint import config_token


def test_default_config_token_is_pinned():
    assert config_token(SystemConfig()) == (
        "cd7725a5d88a9e6be16cee0a677b76f6cd76917dfa2abf3ac9f23056d779f631"
    )


def test_scoped_config_token_is_pinned():
    config = SystemConfig(seed=7, base_concurrency=200.0)
    assert config_token(config, "fleet-shard:0/2:channels:1,2") == (
        "7de208b094e738c41e86d8edeb07907f534f691bda290d185b3a85a12ccb3d9a"
    )
