"""Exact numerical laboratory for decoding operators and local self-distillation.

The package republishes the public names of six modules:

- `categorical`: validated finite distributions and entropy/divergence helpers.
- `decode`: the temper / top-k / top-p / Gumbel-max pipeline and its
  normal-form and rigidity diagnostics.
- `errors`: the `SsdLabError` hierarchy that every refusal raises.
- `objective`: the truncated-and-tempered training target, the exact
  gate + reshape + align loss decomposition, its logit gradient, and a
  deterministic local student trainer.
- `sensitivity`: escort-distribution response identities, entropy
  decompositions over a retained set, and top-p feasibility intervals.
- `toyfsm`: a 16-token chain-of-states world where every headline
  quantity has a closed form, plus Monte Carlo cross-checks.

`import ssdlab` loads none of them. The first read of a public name,
`__all__` or `dir(ssdlab)` included, imports all six and publishes their
names, so `ssdlab.X` is the defining module's object; a command-line run
imports only the modules its subcommand uses. A submodule name, these six
or `pool` (the fork pool), `dump` (the analyze-dump reader) and `cli` (the
command line), imports that module alone.
"""

__version__ = "0.1.0"

_MODULES = ("categorical", "decode", "errors", "objective", "sensitivity", "toyfsm")


def _submodule(name: str):
    # the import statement's path, which -X importtime logs; importlib.import_module
    # would load the module unlogged
    import sys

    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def _publish() -> None:
    """Import the six modules and publish their public names and the sorted union."""
    names = []
    for module in map(_submodule, _MODULES):
        # each module declares its public names once, in its own __all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = sorted(names)


def __getattr__(name: str):
    # called only for a name not yet in the package's namespace (PEP 562)
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name != "__all__":
        try:
            return _submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    _publish()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _publish()
    return sorted(globals())
