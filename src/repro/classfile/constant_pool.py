"""The classfile constant pool (JVMS §4.4).

The constant pool is a 1-indexed table of tagged entries holding every
symbolic reference a class makes: UTF-8 strings, class references, field and
method references, and literal constants.  ``Long`` and ``Double`` entries
occupy *two* slots (a historical quirk preserved here because mutators can
exploit it to produce malformed pools).
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Dict, Hashable, Iterator, List, Optional, Tuple, Union


class CpTag(IntEnum):
    """Constant pool entry tags (JVMS Table 4.4-A)."""

    UTF8 = 1
    INTEGER = 3
    FLOAT = 4
    LONG = 5
    DOUBLE = 6
    CLASS = 7
    STRING = 8
    FIELDREF = 9
    METHODREF = 10
    INTERFACE_METHODREF = 11
    NAME_AND_TYPE = 12
    METHOD_HANDLE = 15
    METHOD_TYPE = 16
    INVOKE_DYNAMIC = 18


#: Tags whose entries occupy two constant-pool slots.
WIDE_TAGS = (CpTag.LONG, CpTag.DOUBLE)

# Reading ``CpTag.UTF8`` off the enum class costs a slow attribute lookup
# in CPython; the per-entry paths of the pool, the reader and the writer
# use these module constants instead.
_UTF8 = CpTag.UTF8
_INTEGER = CpTag.INTEGER
_FLOAT = CpTag.FLOAT
_LONG = CpTag.LONG
_DOUBLE = CpTag.DOUBLE
_CLASS = CpTag.CLASS
_STRING = CpTag.STRING
_FIELDREF = CpTag.FIELDREF
_METHODREF = CpTag.METHODREF
_INTERFACE_METHODREF = CpTag.INTERFACE_METHODREF
_NAME_AND_TYPE = CpTag.NAME_AND_TYPE

CpValue = Union[str, int, float, Tuple[int, ...]]


class CpInfo:
    """One constant pool entry.

    Attributes:
        tag: the entry's :class:`CpTag`.
        value: payload, whose shape depends on the tag:

            * ``UTF8`` — the decoded string.
            * ``INTEGER``/``FLOAT``/``LONG``/``DOUBLE`` — the number.
            * ``CLASS``/``STRING``/``METHOD_TYPE`` — a 1-tuple ``(utf8_index,)``.
            * ``FIELDREF``/``METHODREF``/``INTERFACE_METHODREF`` —
              ``(class_index, name_and_type_index)``.
            * ``NAME_AND_TYPE`` — ``(name_index, descriptor_index)``.
            * ``METHOD_HANDLE`` — ``(reference_kind, reference_index)``.
            * ``INVOKE_DYNAMIC`` — ``(bootstrap_index, name_and_type_index)``.
        is_wide: whether this entry occupies two pool slots; set once,
            from the tag given at construction.

    Equal when tag and value are, unhashable and with a dataclass-style
    repr.  Slotted, because the reader builds one per pool entry of
    every mutant it parses.
    """

    __slots__ = ("tag", "value", "is_wide")

    def __init__(self, tag: CpTag, value: CpValue) -> None:
        self.tag = tag
        self.value = value
        self.is_wide = tag in WIDE_TAGS

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.tag, self.value) == (other.tag, other.value)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(tag={self.tag!r}, "
                f"value={self.value!r})")

    def __reduce__(self):
        return self.__class__, (self.tag, self.value)

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Pickles written while CpInfo was a dataclass carry a state dict.
        self.__init__(state["tag"], state["value"])  # type: ignore[misc]


#: Tags whose entries are interned by bit pattern.
_BIT_KEYED = (CpTag.FLOAT, CpTag.DOUBLE)


def _intern_key(tag: CpTag, value: CpValue) -> Hashable:
    """The key an entry is interned under.

    FLOAT and DOUBLE entries are keyed by their bit pattern, not by
    Python value: ``-0.0 == 0.0`` would fold the two zeros into one
    entry, and a NaN equals nothing (itself only while it is one Python
    object), so NaN entries would depend on object identity — which a
    pickle round trip changes.  ``">d"`` never raises; a float's value
    is exactly a double.
    """
    if tag in _BIT_KEYED:
        return tag, struct.pack(">d", value)
    return tag, value


class ConstantPoolError(ValueError):
    """Raised on structurally invalid constant-pool access or construction."""


class ConstantPool:
    """A mutable, 1-indexed constant pool with interning helpers.

    Entries are stored sparsely in a dict because ``Long``/``Double`` leave
    holes at the slot following them — reading a hole is a format error,
    which the reader surfaces as ``ClassFormatError``.

    The dict is kept in index order, so iteration never sorts: appends
    land past every index, and only an :meth:`add_at` below the end marks
    the order stale, for the next pass to restore once.  A pool the
    reader built has no intern map until something interns into it
    (:meth:`_intern_map`).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, CpInfo] = {}
        self._next_index = 1
        self._intern: Optional[Dict[Hashable, int]] = {}
        #: Whether ``_entries`` is in index order.  ``_next_index`` lies
        #: past every index, so :meth:`add` keeps the order.
        self._ordered = True

    @classmethod
    def parsed(cls, entries: Dict[int, CpInfo], count: int) -> "ConstantPool":
        """The pool the reader parsed: ``entries`` in index order, and the
        declared ``constant_pool_count``.  Its intern map waits for the
        first intern."""
        pool = cls.__new__(cls)
        pool._entries = entries
        pool._next_index = count
        pool._intern = None
        pool._ordered = True
        return pool

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        if "_ordered" not in state:
            # Pickled before the order flag: restore index order once.
            self._ordered = False

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        """The declared pool slot count (``constant_pool_count - 1``)."""
        return self._next_index - 1

    def __iter__(self) -> Iterator[Tuple[int, CpInfo]]:
        """Iterate ``(index, entry)`` pairs in index order, skipping holes."""
        if not self._ordered:
            self._entries = dict(sorted(self._entries.items()))
            self._ordered = True
        return iter(list(self._entries.items()))

    def __contains__(self, index: int) -> bool:
        return index in self._entries

    def entry(self, index: int) -> CpInfo:
        """Return the entry at ``index``.

        A present entry is returned before any other check.

        Raises:
            ConstantPoolError: for out-of-range indices or wide-entry holes.
        """
        info = self._entries.get(index)
        if info is not None:
            return info
        if not isinstance(index, int) or index <= 0 or index >= self._next_index:
            raise ConstantPoolError(f"constant pool index {index} out of range "
                                    f"(count={self._next_index})")
        raise ConstantPoolError(f"constant pool index {index} is the unusable "
                                "slot after a long/double entry")

    def maybe_entry(self, index: int) -> Optional[CpInfo]:
        """Like :meth:`entry` but returning ``None`` instead of raising."""
        return self._entries.get(index)

    # -- construction -------------------------------------------------------

    def add(self, info: CpInfo) -> int:
        """Append ``info``, returning its index.  Does not intern."""
        index = self._next_index
        self._entries[index] = info
        self._next_index += 2 if info.is_wide else 1
        return index

    def add_at(self, index: int, info: CpInfo) -> None:
        """Place ``info`` at an explicit index, interning it unless its
        key is already interned."""
        self._intern_map().setdefault(_intern_key(info.tag, info.value), index)
        entries = self._entries
        if index < self._next_index and index not in entries:
            self._ordered = False
        entries[index] = info
        advance = index + (2 if info.is_wide else 1)
        if advance > self._next_index:
            self._next_index = advance

    def _intern_map(self) -> Dict[Hashable, int]:
        """The intern map, built on first use for a parsed pool: each key
        maps to its lowest index, as placing the entries in index order
        would have left it."""
        intern = self._intern
        if intern is None:
            intern = self._intern = {}
            for index, info in self:
                intern.setdefault(_intern_key(info.tag, info.value), index)
        return intern

    def _interned(self, tag: CpTag, value: CpValue,
                  key: Optional[Hashable] = None) -> int:
        if key is None:
            key = (tag, value)
        intern = self._intern
        if intern is None:
            intern = self._intern_map()
        index = intern.get(key)
        if index is None:
            index = self.add(CpInfo(tag, value))
            intern[key] = index
        return index

    # -- typed interning helpers --------------------------------------------

    def utf8(self, text: str) -> int:
        """Intern a ``CONSTANT_Utf8`` entry and return its index."""
        return self._interned(_UTF8, text)

    def class_ref(self, internal_name: str) -> int:
        """Intern a ``CONSTANT_Class`` for ``internal_name`` (slash form)."""
        return self._interned(_CLASS, (self.utf8(internal_name),))

    def string(self, text: str) -> int:
        """Intern a ``CONSTANT_String`` literal."""
        return self._interned(_STRING, (self.utf8(text),))

    def integer(self, value: int) -> int:
        """Intern a ``CONSTANT_Integer``."""
        return self._interned(_INTEGER, value)

    def float_(self, value: float) -> int:
        """Intern a ``CONSTANT_Float`` (keyed by bit pattern)."""
        return self._interned(_FLOAT, value, _intern_key(_FLOAT, value))

    def long(self, value: int) -> int:
        """Intern a ``CONSTANT_Long`` (occupies two slots)."""
        return self._interned(_LONG, value)

    def double(self, value: float) -> int:
        """Intern a ``CONSTANT_Double`` (occupies two slots; keyed by bit
        pattern)."""
        return self._interned(_DOUBLE, value, _intern_key(_DOUBLE, value))

    def name_and_type(self, name: str, descriptor: str) -> int:
        """Intern a ``CONSTANT_NameAndType``."""
        return self._interned(
            _NAME_AND_TYPE, (self.utf8(name), self.utf8(descriptor)))

    def field_ref(self, class_name: str, name: str, descriptor: str) -> int:
        """Intern a ``CONSTANT_Fieldref``."""
        return self._interned(
            _FIELDREF,
            (self.class_ref(class_name), self.name_and_type(name, descriptor)))

    def method_ref(self, class_name: str, name: str, descriptor: str) -> int:
        """Intern a ``CONSTANT_Methodref``."""
        return self._interned(
            _METHODREF,
            (self.class_ref(class_name), self.name_and_type(name, descriptor)))

    def interface_method_ref(self, class_name: str, name: str,
                             descriptor: str) -> int:
        """Intern a ``CONSTANT_InterfaceMethodref``."""
        return self._interned(
            _INTERFACE_METHODREF,
            (self.class_ref(class_name), self.name_and_type(name, descriptor)))

    # -- typed accessors -----------------------------------------------------

    def _expect(self, index: int, *tags: CpTag) -> CpInfo:
        info = self.entry(index)
        if info.tag not in tags:
            wanted = "/".join(t.name for t in tags)
            raise ConstantPoolError(
                f"constant pool index {index} has tag {info.tag.name}, "
                f"expected {wanted}")
        return info

    def get_utf8(self, index: int) -> str:
        """Read a ``CONSTANT_Utf8`` string."""
        info = self._entries.get(index)
        if info is None or info.tag is not _UTF8:
            info = self._expect(index, _UTF8)
        return info.value  # type: ignore[return-value]

    def get_class_name(self, index: int) -> str:
        """Read the internal name behind a ``CONSTANT_Class``."""
        info = self._entries.get(index)
        if info is None or info.tag is not _CLASS:
            info = self._expect(index, _CLASS)
        (utf8_index,) = info.value  # type: ignore[misc]
        return self.get_utf8(utf8_index)

    def get_string(self, index: int) -> str:
        """Read the text behind a ``CONSTANT_String``."""
        info = self._expect(index, _STRING)
        (utf8_index,) = info.value  # type: ignore[misc]
        return self.get_utf8(utf8_index)

    def get_name_and_type(self, index: int) -> Tuple[str, str]:
        """Read ``(name, descriptor)`` behind a ``CONSTANT_NameAndType``."""
        info = self._expect(index, _NAME_AND_TYPE)
        name_index, desc_index = info.value  # type: ignore[misc]
        return self.get_utf8(name_index), self.get_utf8(desc_index)

    def get_member_ref(self, index: int) -> Tuple[str, str, str]:
        """Read ``(class, name, descriptor)`` behind any member reference."""
        info = self._expect(index, _FIELDREF, _METHODREF,
                            _INTERFACE_METHODREF)
        class_index, nat_index = info.value  # type: ignore[misc]
        name, descriptor = self.get_name_and_type(nat_index)
        return self.get_class_name(class_index), name, descriptor

    # -- diagnostics ---------------------------------------------------------

    def referenced_class_names(self) -> List[str]:
        """All internal class names the pool mentions via ``CONSTANT_Class``."""
        names = []
        for _, info in self:
            if info.tag is _CLASS:
                (utf8_index,) = info.value  # type: ignore[misc]
                entry = self.maybe_entry(utf8_index)
                if entry is not None and entry.tag is _UTF8:
                    names.append(entry.value)  # type: ignore[arg-type]
        return names
