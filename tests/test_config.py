"""Loading run and sweep configurations: each refusal and its message."""

from __future__ import annotations

import pytest

from blocklace.config import ConfigError, expand_sweep, load_config


@pytest.mark.parametrize("text, message", [
    pytest.param(None, "{path}: [Errno 2] No such file or directory: '{path}'",
                 id="unreadable-file"),
    pytest.param("{oops", "{path}:1: Expecting property name enclosed in double quotes",
                 id="bad-json"),
    pytest.param("[1]", "{path}: top level must be an object", id="top-level-not-an-object"),
    pytest.param('{"out_dir": 5}', "{path}: out_dir must be a string, got 5",
                 id="out-dir-a-number"),
    pytest.param('{"out_dir": null}', "{path}: out_dir must be a string, got None",
                 id="out-dir-null"),
    pytest.param('{"sweep": [4]}', "{path}: bad sweep section", id="sweep-not-an-object"),
    pytest.param('{"sweep": {"batches": 2}}', "{path}: bad sweep section",
                 id="sweep-unknown-axis"),
    pytest.param('{"sweep": {"batch": "x"}}', "sweep: batch: expected int, got 'x'",
                 id="sweep-batch-not-an-int"),
    pytest.param('{"sweep": {"batch": -1}}', "sweep point n=4 eventual-synchrony seed=0: "
                 "negative batch or payload size", id="sweep-batch-negative"),
])
def test_config_refuses_with_its_reason(tmp_path, text, message):
    """A config that cannot be read, or that names no valid run or sweep,
    raises ConfigError saying why; the CLI prints it as a config error."""
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        expand_sweep(load_config(str(path)))
    assert str(exc.value) == message.format(path=path)

