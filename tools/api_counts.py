"""Size of pcup's source and public surface, as one JSON record.

    python3 tools/api_counts.py [--src DIR]

Imports the `pcup` package found in DIR (default: this checkout's src/)
and prints:
- `src_lines`: lines of every .py file under DIR;
- `exported_names`: the sum of every pcup module's `__all__`;
- `exported_parameters` and `parameters_with_default`: the parameters
  of every exported function and of every exported class's `__init__`
  and public methods, as declared (`self` and `cls` included);
- `train_config_fields`: the fields of `TrainConfig`;
- `cli_options`: per `pcup` command, its options (`--help` not counted).

Comparing the records of two commits shows whether a change grew or
shrank the code and the surface a user must learn. Needs pcup and the
standard library only; a DIR without a `pcup` package is an error.
"""

import argparse
import dataclasses
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def signatures(obj):
    """The signatures an exported name declares: a function's, or a
    class's __init__ and public methods', each as written, so `self` and
    `cls` count."""
    if not inspect.isclass(obj):
        return [inspect.signature(obj)] if callable(obj) else []
    sigs = []
    for name in dir(obj):
        if name != "__init__" and name.startswith("_"):
            continue
        member = inspect.getattr_static(obj, name)
        member = getattr(member, "__func__", member)  # under a static or class method
        if callable(member):
            sigs.append(inspect.signature(member))
    return sigs


def api_counts(src):
    """The record for the pcup package under `src`, imported from there."""
    sys.path.insert(0, str(src))
    pcup = importlib.import_module("pcup")
    if Path(pcup.__file__).resolve().parent != (src / "pcup").resolve():
        raise ValueError(f"{src}: pcup was imported from {pcup.__file__} instead")
    names = params = defaults = 0
    for info in pkgutil.iter_modules(pcup.__path__):
        module = importlib.import_module(f"pcup.{info.name}")
        exported = getattr(module, "__all__", ())
        names += len(exported)
        for name in exported:
            for sig in signatures(getattr(module, name)):
                params += len(sig.parameters)
                defaults += sum(p.default is not p.empty for p in sig.parameters.values())
    training = importlib.import_module("pcup.training")
    cli = importlib.import_module("pcup.cli")
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {
        "src": str(src),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
        "exported_names": names,
        "exported_parameters": params,
        "parameters_with_default": defaults,
        "train_config_fields": len(dataclasses.fields(training.TrainConfig)),
        "cli_options": {
            command: sum(1 for a in sub._actions
                         if a.option_strings and not isinstance(a, argparse._HelpAction))
            for command, sub in commands.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the pcup package (default: %(default)s)")
    args = parser.parse_args(argv)
    if not (args.src / "pcup" / "__init__.py").is_file():
        print(f"error: {args.src}: no pcup package", file=sys.stderr)
        return 1
    try:
        record = api_counts(args.src)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
