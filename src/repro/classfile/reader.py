"""Binary classfile parser (JVMS §4).

Parsing is the *creation & loading* phase's format check: any structural
violation is a :class:`repro.errors.ClassFormatError` with a message in
the style real JVMs print.

A parse is vendor-independent: :meth:`ClassReader.read` returns a
:class:`ParsedClass` holding the version pair, the class or the format
error, and the count of trailing bytes.  The reader's only policy inputs,
the supported version range and whether trailing bytes are an error, are
applied afterwards by :meth:`ParsedClass.accept` in the order the bytes
are read: version range, then the body's error, then trailing bytes.  So
one parse (:func:`parse_class`) serves every vendor that runs a
classfile, and each vendor's outcome is the one its own parse would give.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import (
    Attribute,
    CodeAttribute,
    ConstantValueAttribute,
    ExceptionHandler,
    ExceptionsAttribute,
    RawAttribute,
    SourceFileAttribute,
)
from repro.classfile.constant_pool import (
    WIDE_TAGS,
    ConstantPool,
    ConstantPoolError,
    CpInfo,
    CpTag,
)
from repro.classfile.fields import FieldInfo
from repro.coverage.probes import probe
from repro.classfile.methods import MethodInfo
from repro.classfile.model import MAGIC, ClassFile
from repro.errors import ClassFormatError, UnsupportedClassVersionError


@dataclass
class ReaderOptions:
    """Vendor-specific parsing strictness.

    Attributes:
        max_supported_major: reject classfiles above this major version.
        min_supported_major: reject classfiles below this major version.
        reject_trailing_bytes: whether extra bytes after the class
            structure are a format error (HotSpot rejects, GIJ ignores).
    """

    max_supported_major: int = 52
    min_supported_major: int = 45
    reject_trailing_bytes: bool = True

    def version_error(self, major: int, minor: int
                      ) -> Optional[UnsupportedClassVersionError]:
        """The error for a version outside the supported range, if any."""
        if major > self.max_supported_major:
            return UnsupportedClassVersionError(
                f"Unsupported major.minor version {major}.{minor} "
                f"(max supported {self.max_supported_major}.0)")
        if major < self.min_supported_major:
            return UnsupportedClassVersionError(
                f"Unsupported major.minor version {major}.{minor} "
                f"(min supported {self.min_supported_major}.0)")
        return None


#: Reads the body of every version: the parse several vendors share.
_ANY_VERSION = ReaderOptions(max_supported_major=0xFFFF,
                             min_supported_major=0)


@dataclass(frozen=True)
class ParsedClass:
    """Classfile bytes parsed once, before any vendor policy applies.

    Attributes:
        major/minor: the version pair, or ``None`` when the header itself
            is malformed (bad magic, truncated).
        classfile: the parsed class, or ``None`` when ``error`` is set.
        error: the format error the bytes raise, if any.  A version
            outside the reader's range stops the parse before the body,
            so this is then that version error.
        trailing: bytes left after the class structure.
        verified: the vendors' verification outcomes on this parse (see
            :meth:`repro.jvm.linker.Linker.verify_method`); pickles and
            copies carry an empty one.
    """

    major: Optional[int]
    minor: Optional[int]
    classfile: Optional[ClassFile]
    error: Optional[ClassFormatError]
    trailing: int = 0
    verified: dict = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self):
        return {**self.__dict__, "verified": {}}

    def accept(self, options: ReaderOptions) -> ClassFile:
        """Apply one vendor's policy: the class it loads, or its error.

        Raises:
            UnsupportedClassVersionError: for a version outside
                ``options``' range (checked first, as the header is).
            ClassFormatError: for the body's error, then for trailing
                bytes when ``options`` rejects them.
        """
        if self.major is not None:
            version_error = options.version_error(self.major, self.minor)
            if version_error is not None:
                raise version_error
        if self.error is not None:
            # The same error object reaches every vendor; drop the
            # traceback of its previous raise.
            raise self.error.with_traceback(None)
        if self.trailing and options.reject_trailing_bytes:
            raise ClassFormatError(
                f"Extra bytes at the end of class file ({self.trailing} left)")
        return self.classfile


def _truncated(count: int, offset: int, end: int) -> ClassFormatError:
    """The error for a read of ``count`` bytes at ``offset`` past ``end``."""
    return ClassFormatError(
        f"Truncated class file (wanted {count} bytes at offset {offset}, "
        f"have {end - offset})")


def _short_field(sizes: Tuple[int, ...], offset: int,
                 end: int) -> ClassFormatError:
    """The error a field-by-field read of ``sizes`` at ``offset`` meets:
    the first field that runs past ``end`` is the one reported."""
    for size in sizes:
        if offset + size > end:
            return _truncated(size, offset, end)
        offset += size
    raise AssertionError("the fields fit")  # pragma: no cover


class _Layout:
    """Consecutive big-endian fields read with one ``unpack_from``."""

    __slots__ = ("unpack", "size", "sizes")

    def __init__(self, fmt: str):
        compiled = struct.Struct(fmt)
        self.unpack = compiled.unpack_from
        self.size = compiled.size
        self.sizes = tuple(struct.calcsize(">" + code) for code in fmt[1:])


_U2 = _Layout(">H")
_U4 = _Layout(">I")
_VERSION = _Layout(">HH")
_MEMBER_HEADER = _Layout(">HHH")
_CODE_HEADER = _Layout(">HHI")
_HANDLER = _Layout(">HHHH")


class _ByteCursor:
    """A bounds-checked big-endian byte cursor.

    Each read checks the bounds once and unpacks at an offset, without
    slicing.  A short read raises the ``ClassFormatError`` a
    field-by-field read would: the first field that does not fit, at its
    offset.
    """

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.end = len(data)

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def fields(self, layout: _Layout) -> Tuple[int, ...]:
        pos = self.pos
        stop = pos + layout.size
        if stop > self.end:
            raise _short_field(layout.sizes, pos, self.end)
        self.pos = stop
        return layout.unpack(self.data, pos)

    def u2(self) -> int:
        return self.fields(_U2)[0]

    def u2s(self, count: int) -> List[int]:
        """``count`` consecutive u2 values."""
        pos = self.pos
        stop = pos + 2 * count
        if stop > self.end:
            # The first u2 that does not fit.
            raise _truncated(2, pos + (self.end - pos) // 2 * 2, self.end)
        self.pos = stop
        return list(struct.unpack_from(f">{count}H", self.data, pos))

    def raw(self, count: int) -> bytes:
        pos = self.pos
        stop = pos + count
        if stop > self.end:
            raise _truncated(count, pos, self.end)
        self.pos = stop
        return self.data[pos:stop]


#: The kinds of entry each tag's internal references must name (JVMS §4.4).
_CP_REFERENCES = {
    **dict.fromkeys((CpTag.CLASS, CpTag.STRING, CpTag.METHOD_TYPE),
                    (CpTag.UTF8,)),
    CpTag.NAME_AND_TYPE: (CpTag.UTF8, CpTag.UTF8),
    **dict.fromkeys((CpTag.FIELDREF, CpTag.METHODREF,
                     CpTag.INTERFACE_METHODREF),
                    (CpTag.CLASS, CpTag.NAME_AND_TYPE)),
}

#: Each non-Utf8 tag's payload fields.
_CP_PAYLOADS = {
    CpTag.INTEGER: ">i", CpTag.FLOAT: ">f", CpTag.LONG: ">q",
    CpTag.DOUBLE: ">d", CpTag.CLASS: ">H", CpTag.STRING: ">H",
    CpTag.METHOD_TYPE: ">H", CpTag.FIELDREF: ">HH", CpTag.METHODREF: ">HH",
    CpTag.INTERFACE_METHODREF: ">HH", CpTag.NAME_AND_TYPE: ">HH",
    CpTag.INVOKE_DYNAMIC: ">HH", CpTag.METHOD_HANDLE: ">BH",
}

#: Tag byte → (tag, coverage site, payload layout, whether the payload is
#: one number rather than a tuple of indices, slots taken, the entry
#: kinds its references need).  Utf8 has no layout: a length, then text.
_CP_TAGS = {
    int(tag): (tag, f"reader.cp.{tag.name.lower()}",
               _Layout(_CP_PAYLOADS[tag]) if tag in _CP_PAYLOADS else None,
               tag in (CpTag.INTEGER, CpTag.FLOAT, CpTag.LONG, CpTag.DOUBLE),
               2 if tag in WIDE_TAGS else 1,
               _CP_REFERENCES.get(tag))
    for tag in CpTag
}

# Reading ``CpTag.CLASS`` off the enum class is a slow attribute lookup
# in CPython; the per-member checks use these.
_CLASS = CpTag.CLASS
_UTF8 = CpTag.UTF8

#: Attribute name → its coverage site; any other name is ``other``.
_ATTR_SITES = {name: f"reader.attr.{name}"
               for name in ("Code", "Exceptions", "ConstantValue",
                            "SourceFile")}


class ClassReader:
    """Parses classfile bytes into a :class:`ParsedClass`."""

    def __init__(self, options: ReaderOptions | None = None):
        self.options = options or ReaderOptions()

    def read(self, data: bytes) -> ParsedClass:
        """Parse ``data``; format errors are returned, not raised.

        The body is parsed only when the version is inside this reader's
        range, so a version-rejected class reaches no body check (and
        records no ``reader.*`` coverage site).  Trailing bytes are
        counted, never rejected here: see :meth:`ParsedClass.accept`.
        """
        cursor = _ByteCursor(data)
        major = minor = None
        try:
            (magic,) = cursor.fields(_U4)
            if magic != MAGIC:
                raise ClassFormatError(
                    f"Incompatible magic value {magic:#010x} in class file")
            minor, major = cursor.fields(_VERSION)
            version_error = self.options.version_error(major, minor)
            if version_error is not None:
                return ParsedClass(major, minor, None, version_error)
            classfile = self._read_body(cursor, major, minor)
        except ClassFormatError as exc:
            return ParsedClass(major, minor, None, exc)
        return ParsedClass(major, minor, classfile, None, cursor.remaining)

    def _read_body(self, cursor: _ByteCursor, major: int,
                   minor: int) -> ClassFile:
        pool = _read_constant_pool(cursor)
        flags, this_class, super_class = cursor.fields(_MEMBER_HEADER)
        self._check_class_index(pool, this_class, "this_class", allow_zero=False)
        self._check_class_index(pool, super_class, "super_class", allow_zero=True)

        interfaces = cursor.u2s(cursor.u2())
        for index in interfaces:
            self._check_class_index(pool, index, "interface", allow_zero=False)

        fields = [self._read_member(cursor, pool, FieldInfo, "field")
                  for _ in range(cursor.u2())]
        methods = [self._read_member(cursor, pool, MethodInfo, "method")
                   for _ in range(cursor.u2())]
        attributes = self._read_attributes(cursor, pool)
        return ClassFile(
            minor_version=minor,
            major_version=major,
            constant_pool=pool,
            access_flags=AccessFlags(flags),
            this_class=this_class,
            super_class=super_class,
            interfaces=interfaces,
            fields=fields,
            methods=methods,
            attributes=attributes,
        )

    # -- pieces ---------------------------------------------------------------

    def _check_class_index(self, pool: ConstantPool, index: int, what: str,
                           allow_zero: bool) -> None:
        if index == 0:
            if allow_zero:
                return
            raise ClassFormatError(f"Invalid {what} constant pool index 0")
        try:
            info = pool.entry(index)
        except ConstantPoolError as exc:
            raise ClassFormatError(f"Invalid {what} index: {exc}") from exc
        if info.tag is not _CLASS:
            raise ClassFormatError(
                f"{what} index {index} is a {info.tag.name}, not a Class")

    def _read_member_name(self, pool: ConstantPool, index: int,
                          what: str) -> None:
        try:
            info = pool.entry(index)
        except ConstantPoolError as exc:
            raise ClassFormatError(f"Invalid {what} name index: {exc}") from exc
        if info.tag is not _UTF8:
            raise ClassFormatError(
                f"{what} name index {index} is a {info.tag.name}, not Utf8")

    def _read_member(self, cursor: _ByteCursor, pool: ConstantPool,
                     kind, what: str):
        """One field or method (``kind`` is its info class)."""
        flags, name_index, descriptor_index = cursor.fields(_MEMBER_HEADER)
        self._read_member_name(pool, name_index, what)
        self._read_member_name(pool, descriptor_index, f"{what} descriptor")
        attributes = self._read_attributes(cursor, pool)
        return kind(AccessFlags(flags), name_index, descriptor_index,
                    attributes)

    def _read_attributes(self, cursor: _ByteCursor,
                         pool: ConstantPool) -> List[Attribute]:
        count = cursor.u2()
        return [self._read_attribute(cursor, pool) for _ in range(count)]

    def _read_attribute(self, cursor: _ByteCursor,
                        pool: ConstantPool) -> Attribute:
        name_index = cursor.u2()
        try:
            name = pool.get_utf8(name_index)
        except ConstantPoolError as exc:
            raise ClassFormatError(f"Invalid attribute name index: {exc}") from exc
        (length,) = cursor.fields(_U4)
        body = cursor.raw(length)
        return self._decode_attribute(name, body, pool)

    def _decode_attribute(self, name: str, body: bytes,
                          pool: ConstantPool) -> Attribute:
        probe(_ATTR_SITES.get(name, "reader.attr.other"))
        inner = _ByteCursor(body)
        if name == "Code":
            max_stack, max_locals, code_length = inner.fields(_CODE_HEADER)
            if code_length == 0:
                raise ClassFormatError("Code attribute with zero-length code")
            code = inner.raw(code_length)
            table = [ExceptionHandler(*inner.fields(_HANDLER))
                     for _ in range(inner.u2())]
            nested = self._read_attributes(inner, pool)
            return CodeAttribute(max_stack, max_locals, code, table, nested)
        if name == "Exceptions":
            indices = inner.u2s(inner.u2())
            for index in indices:
                self._check_class_index(pool, index, "exception", allow_zero=False)
            return ExceptionsAttribute(indices)
        if name == "ConstantValue":
            if len(body) != 2:
                raise ClassFormatError(
                    f"ConstantValue attribute has length {len(body)}, expected 2")
            return ConstantValueAttribute(inner.u2())
        if name == "SourceFile":
            if len(body) != 2:
                raise ClassFormatError(
                    f"SourceFile attribute has length {len(body)}, expected 2")
            return SourceFileAttribute(inner.u2())
        return RawAttribute(name=name, data=body)


def _read_constant_pool(cursor: _ByteCursor) -> ConstantPool:
    """Parse the pool in one loop: per entry, a tag-table lookup, its
    probe, one bounds check and one ``unpack_from``.  Then check every
    internal reference (:func:`_check_pool_references`)."""
    count = cursor.u2()
    if count == 0:
        raise ClassFormatError("Illegal constant pool count 0")
    data, pos, end = cursor.data, cursor.pos, cursor.end
    tags = _CP_TAGS
    unpack_u2 = _U2.unpack
    entries = {}
    referring = []
    index = 1
    while index < count:
        if pos >= end:
            raise _truncated(1, pos, end)
        tag_value = data[pos]
        known = tags.get(tag_value)
        if known is None:
            raise ClassFormatError(
                f"Unknown constant tag {tag_value} at index {index}")
        tag, site, layout, scalar, slots, wanted = known
        probe(site)
        pos += 1
        if layout is None:  # Utf8: a u2 length, then the bytes
            if pos + 2 > end:
                raise _truncated(2, pos, end)
            length = unpack_u2(data, pos)[0]
            pos += 2
            stop = pos + length
            if stop > end:
                raise _truncated(length, pos, end)
            try:
                value = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ClassFormatError(
                    f"Malformed UTF-8 constant: {exc}") from exc
            pos = stop
        else:
            stop = pos + layout.size
            if stop > end:
                raise _short_field(layout.sizes, pos, end)
            value = layout.unpack(data, pos)
            if scalar:
                value = value[0]
            pos = stop
        info = entries[index] = CpInfo(tag, value)
        if wanted is not None:
            referring.append((index, info, wanted))
        index += slots
    cursor.pos = pos
    _check_pool_references(entries, referring)
    return ConstantPool.parsed(entries, count)


def _check_pool_references(entries, referring) -> None:
    """Every internal reference names an entry of the kind its tag needs,
    as HotSpot's ``parse_constant_pool`` checks before any entry is
    used: no later pool access can then dangle.  ``referring`` lists
    ``(index, entry, wanted tags)`` in index order."""
    for index, info, wanted in referring:
        for target, tag in zip(info.value, wanted):
            entry = entries.get(target)
            if entry is None or entry.tag is not tag:
                raise ClassFormatError(
                    f"Invalid constant pool index {target} in class "
                    f"file ({info.tag.name} entry {index} needs "
                    f"{tag.name})")


def read_class(data: bytes, options: ReaderOptions | None = None) -> ClassFile:
    """Parse ``data`` and apply ``options`` (default: the strict reader).

    Raises:
        ClassFormatError: for any structural violation.
        UnsupportedClassVersionError: for version range violations.
    """
    options = options or ReaderOptions()
    return ClassReader(options).read(data).accept(options)


def parse_class(data: bytes) -> ParsedClass:
    """One parse of ``data`` for every vendor that runs it.

    Every version's body is read, so each vendor's
    :meth:`ParsedClass.accept` (through
    :meth:`repro.jvm.loader.Loader.load`) raises exactly what a parse
    under its own policy would.
    """
    return ClassReader(_ANY_VERSION).read(data)
