"""Name conversions between DiaSpec and Python conventions.

DiaSpec follows Java-ish conventions (``ParkingAvailability``,
``tickSecond``, ``askQuestion``); the generated Python frameworks and the
runtime dispatch use PEP 8 names (``parking_availability``,
``on_tick_second_from_clock``).  All conversions live here so the code
generator and the runtime agree exactly on method names.
"""

from __future__ import annotations

import functools
import re

_CAMEL_BOUNDARY = re.compile(
    r"""
    (?<=[a-z0-9])(?=[A-Z])        # fooBar -> foo_Bar
    | (?<=[A-Z])(?=[A-Z][a-z])    # HTTPServer -> HTTP_Server
    """,
    re.VERBOSE,
)


@functools.lru_cache(maxsize=4096)
def camel_to_snake(name: str) -> str:
    """``tickSecond`` → ``tick_second``; ``HTTPServer`` → ``http_server``.

    Memoised: a design's vocabulary is closed, and the runtime asks for
    the same few names on every read, actuation and proxy, so the regex
    runs once per name.  (Bounded, because driver parameter names come
    from callers.)"""
    return _CAMEL_BOUNDARY.sub("_", name).lower()


def snake_to_camel(name: str) -> str:
    """``tick_second`` → ``tickSecond``."""
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def class_name(name: str) -> str:
    """DiaSpec declaration name as a Python class name (identity for
    well-formed designs, but normalizes lowercase-first names)."""
    return name[:1].upper() + name[1:]


def abstract_class_name(name: str) -> str:
    """Figure 9: the generated base for ``Alert`` is ``AbstractAlert``."""
    return f"Abstract{class_name(name)}"


def publishable_name(name: str) -> str:
    """Figure 9: the typed wrapper is ``AlertValuePublishable``."""
    return f"{class_name(name)}ValuePublishable"


def event_handler_name(source: str, device: str) -> str:
    """Figure 9: ``onTickSecondFromClock`` → ``on_tick_second_from_clock``."""
    return f"on_{camel_to_snake(source)}_from_{camel_to_snake(device)}"


def event_handler_short_name(source: str) -> str:
    return f"on_{camel_to_snake(source)}"


def periodic_handler_name(source: str, device: str) -> str:
    return f"on_periodic_{camel_to_snake(source)}_from_{camel_to_snake(device)}"


def periodic_handler_short_name(source: str) -> str:
    """Figure 10: ``onPeriodicPresence`` → ``on_periodic_presence``."""
    return f"on_periodic_{camel_to_snake(source)}"


def context_handler_name(context: str) -> str:
    """Figure 11: ``onParkingAvailability`` → ``on_parking_availability``."""
    return f"on_{camel_to_snake(context)}"


def query_method_name(source: str) -> str:
    """Proxy query method for a source facet."""
    return camel_to_snake(source)


def action_method_name(action: str) -> str:
    """Proxy/driver method for an action facet."""
    return camel_to_snake(action)


def driver_reader_name(source: str) -> str:
    """Driver method serving a source: ``presence`` → ``read_presence``."""
    return f"read_{query_method_name(source)}"


def driver_handler_name(action: str) -> str:
    """Driver method performing an action: ``askQuestion`` →
    ``do_ask_question``."""
    return f"do_{action_method_name(action)}"


def where_method_name(attribute: str) -> str:
    """Figure 11: ``whereLocation`` → ``where_location``."""
    return f"where_{camel_to_snake(attribute)}"


def pluralize(word: str) -> str:
    """Naive English plural used for discovery sets (Figure 11:
    ``parkingEntrancePanels``)."""
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    if word.endswith("y") and len(word) > 1 and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


def proxy_set_method_name(device: str) -> str:
    """Discovery accessor: device ``ParkingEntrancePanel`` →
    ``parking_entrance_panels``."""
    return pluralize(camel_to_snake(device))
