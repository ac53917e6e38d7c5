"""The one name -> spec registry type behind every ``--list-*`` catalogue.

Methods and tasks (:mod:`repro.registry`) and scenarios
(:mod:`repro.pipeline.scenarios`) are each a :class:`Registry`.  It imports
nothing, so any layer can hold one without importing the algorithm
layers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple


class Registry:
    """Specs by their ``name`` attribute, in registration order.

    ``noun`` names an entry in error messages; ``check`` vets a spec before
    it is registered and raises ``ValueError`` for one the registry must
    refuse.
    """

    def __init__(self, noun: str, check: Optional[Callable[[Any], None]] = None) -> None:
        self._noun = noun
        self._check = check
        self._specs: Dict[str, Any] = {}

    def register(self, spec: Any, overwrite: bool = False) -> Any:
        """Add ``spec`` (``overwrite=False`` rejects name clashes)."""
        if self._check is not None:
            self._check(spec)
        if spec.name in self._specs and not overwrite:
            raise ValueError("{} {!r} is already registered".format(self._noun, spec.name))
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> Any:
        """Look up a spec, raising ``ValueError`` with the catalogue."""
        try:
            return self._specs[name]
        except KeyError:
            raise ValueError(
                "unknown {} {!r}; choose from {}".format(self._noun, name, self.names())
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[Any]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)
