"""The public package namespace."""

import json
import os
import subprocess
import sys
from importlib import resources

from jsonschema import Draft202012Validator

import qeflab


def test_all_names_resolve():
    # a helper deleted from a module but still listed in __all__ fails here
    missing = [name for name in qeflab.__all__ if not hasattr(qeflab, name)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # scipy and jsonschema are test-only dependencies; the CLI must start without them
    banned = ("scipy", "jsonschema", "jsonschema_specifications", "referencing", "rpds",
              "attr", "attrs")
    code = ("import sys, qeflab.cli; "
            f"print(sorted(k for k in sys.modules if k.split('.')[0] in {banned!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_packaged_schema_is_valid():
    # load_config validates configs only; the schema's own check is here
    schema = json.loads(resources.files("qeflab").joinpath("config_schema.json").read_text())
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    Draft202012Validator.check_schema(schema)
