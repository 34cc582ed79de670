"""Class/subclass label hierarchies.

A hierarchy groups a flat list of global subclass indices into classes.
Global indices are assigned class-major: all of class 0's subclasses come
first, then class 1's, and so on.  That makes subclass-to-class probability
aggregation a contiguous-range sum.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field


def whole_number(value, what: str) -> int:
    """value as an int if it is a whole number: the one rule for every count, size and width.
    3, 3.0 and np.int64(3) give 3; 2.5, NaN, infinities, bools and non-numbers raise ValueError."""
    if type(value) is int:  # the common case; a bool is its own type and is refused below
        return value
    try:
        if not isinstance(value, (bool, str)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # a non-number, NaN or an infinity
        pass
    raise ValueError(f"{what} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class LabelHierarchy:
    """Grouping of global subclass indices into classes.

    Parameters
    ----------
    subclasses_per_class : tuple of int
        Number of subclasses under each class, in class order, stored as ints
        (whole numbers only: see whole_number).  Every class must have at least
        one subclass; a class with exactly one subclass is the class itself.

    Attributes
    ----------
    offsets : tuple of int
        Start of each class's block of global subclass indices, then the
        total: ``offsets[c]:offsets[c + 1]`` are class c's subclasses
        (len = num_classes + 1).
    class_of : tuple of int
        The class of each global subclass index: ``class_of[j]`` owns subclass j.
    split_classes : tuple of int
        The classes with more than one subclass, in class order.
    """

    subclasses_per_class: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    class_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    split_classes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spc = tuple(whole_number(n, "subclass count") for n in self.subclasses_per_class)
        if not spc:
            raise ValueError("hierarchy needs at least one class")
        if any(n < 1 for n in spc):
            raise ValueError("every class needs at least one subclass")
        object.__setattr__(self, "subclasses_per_class", spc)
        object.__setattr__(self, "offsets", (0, *itertools.accumulate(spc)))
        object.__setattr__(self, "class_of", tuple(c for c, n in enumerate(spc) for _ in range(n)))
        object.__setattr__(self, "split_classes", tuple(c for c, n in enumerate(spc) if n > 1))

    @property
    def num_classes(self) -> int:
        return len(self.subclasses_per_class)

    @property
    def total_subclasses(self) -> int:
        return self.offsets[-1]

    def class_slice(self, class_index: int) -> slice:
        """Slice of global subclass indices belonging to one class."""
        if not 0 <= class_index < self.num_classes:
            raise IndexError(f"class index {class_index} out of range")
        return slice(self.offsets[class_index], self.offsets[class_index + 1])

    def sample_counts(self, counts) -> tuple[tuple[int, ...], ...]:
        """Per-subclass sample counts as ints, by the one rule the data and every label-bit
        bound use: one row per class, as long as its subclass count; each count a whole
        number (by whole_number, so NaN and infinities fail) and nonnegative; a positive total."""
        counts = tuple(tuple(row) for row in counts)
        if tuple(map(len, counts)) != self.subclasses_per_class:
            raise ValueError("counts shape does not match the hierarchy")
        try:
            counts = tuple(tuple(whole_number(n, "count") for n in row) for row in counts)
        except ValueError as exc:
            raise ValueError("counts must be whole nonnegative numbers") from exc
        if any(n < 0 for row in counts for n in row):
            raise ValueError("counts must be whole nonnegative numbers")
        if sum(map(sum, counts)) == 0:
            raise ValueError("total sample count is zero")
        return counts


# Task presets.  Two classes throughout; class 0 plays the minority
# (positive/lesion) role and class 1 the majority role.  The name encodes
# how many subclasses each class is split into.
TASK_PRESETS: dict[str, tuple[int, ...]] = {
    "ClassLevel": (1, 1),
    "SL21": (2, 1),
    "SL22": (2, 2),
    "SL12": (1, 2),
}


def build_task_preset(name: str) -> LabelHierarchy:
    """Look up one of the named two-class task hierarchies."""
    try:
        spc = TASK_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(TASK_PRESETS))
        raise ValueError(f"unknown task preset {name!r} (known: {known})") from None
    return LabelHierarchy(spc)
