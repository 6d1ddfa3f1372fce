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
from dataclasses import dataclass
from typing import List, Optional

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
from repro.classfile.constant_pool import ConstantPool, ConstantPoolError, CpInfo, CpTag
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
        reject_unknown_cp_tags: whether unknown constant-pool tags are a
            format error (all real JVMs reject; kept togglable for fuzzing
            the parser itself).
    """

    max_supported_major: int = 52
    min_supported_major: int = 45
    reject_trailing_bytes: bool = True
    reject_unknown_cp_tags: bool = True

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
    """

    major: Optional[int]
    minor: Optional[int]
    classfile: Optional[ClassFile]
    error: Optional[ClassFormatError]
    trailing: int = 0

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


class _ByteCursor:
    """A bounds-checked big-endian byte cursor."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise ClassFormatError(
                f"Truncated class file (wanted {count} bytes at offset "
                f"{self._pos}, have {self.remaining})")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def u1(self) -> int:
        return self._take(1)[0]

    def u2(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u4(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def s4(self) -> int:
        return struct.unpack(">i", self._take(4))[0]

    def s8(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def f4(self) -> float:
        return struct.unpack(">f", self._take(4))[0]

    def f8(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def raw(self, count: int) -> bytes:
        return self._take(count)


#: Tag byte → (tag, its coverage site), built once for every pool entry.
_CP_TAGS = {int(tag): (tag, f"reader.cp.{tag.name.lower()}") for tag in CpTag}

#: The kinds of entry each tag's internal references must name (JVMS §4.4).
_CP_REFERENCES = {
    **dict.fromkeys((CpTag.CLASS, CpTag.STRING, CpTag.METHOD_TYPE),
                    (CpTag.UTF8,)),
    CpTag.NAME_AND_TYPE: (CpTag.UTF8, CpTag.UTF8),
    **dict.fromkeys((CpTag.FIELDREF, CpTag.METHODREF,
                     CpTag.INTERFACE_METHODREF),
                    (CpTag.CLASS, CpTag.NAME_AND_TYPE)),
}


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
            magic = cursor.u4()
            if magic != MAGIC:
                raise ClassFormatError(
                    f"Incompatible magic value {magic:#010x} in class file")
            minor = cursor.u2()
            major = cursor.u2()
            version_error = self.options.version_error(major, minor)
            if version_error is not None:
                return ParsedClass(major, minor, None, version_error)
            classfile = self._read_body(cursor, major, minor)
        except ClassFormatError as exc:
            return ParsedClass(major, minor, None, exc)
        return ParsedClass(major, minor, classfile, None, cursor.remaining)

    def _read_body(self, cursor: _ByteCursor, major: int,
                   minor: int) -> ClassFile:
        pool = self._read_constant_pool(cursor)
        access_flags = AccessFlags(cursor.u2())
        this_class = cursor.u2()
        super_class = cursor.u2()
        self._check_class_index(pool, this_class, "this_class", allow_zero=False)
        self._check_class_index(pool, super_class, "super_class", allow_zero=True)

        interfaces = [cursor.u2() for _ in range(cursor.u2())]
        for index in interfaces:
            self._check_class_index(pool, index, "interface", allow_zero=False)

        fields = [self._read_field(cursor, pool) for _ in range(cursor.u2())]
        methods = [self._read_method(cursor, pool) for _ in range(cursor.u2())]
        attributes = self._read_attributes(cursor, pool)
        return ClassFile(
            minor_version=minor,
            major_version=major,
            constant_pool=pool,
            access_flags=access_flags,
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
        if info.tag is not CpTag.CLASS:
            raise ClassFormatError(
                f"{what} index {index} is a {info.tag.name}, not a Class")

    def _read_constant_pool(self, cursor: _ByteCursor) -> ConstantPool:
        count = cursor.u2()
        if count == 0:
            raise ClassFormatError("Illegal constant pool count 0")
        pool = ConstantPool()
        index = 1
        while index < count:
            tag_value = cursor.u1()
            known = _CP_TAGS.get(tag_value)
            if known is None:
                if self.options.reject_unknown_cp_tags:
                    raise ClassFormatError(
                        f"Unknown constant tag {tag_value} at index {index}")
                # Lenient mode: treat the rest of the pool as opaque.
                break
            tag, site = known
            probe(site)
            info = self._read_cp_entry(cursor, tag)
            pool.add_at(index, info)
            index += 2 if info.is_wide else 1
        pool.set_count(count)
        self._check_pool_references(pool)
        return pool

    @staticmethod
    def _check_pool_references(pool: ConstantPool) -> None:
        """Every internal reference names an entry of the kind its tag
        needs, as HotSpot's ``parse_constant_pool`` checks before any
        entry is used: no later pool access can then dangle."""
        for index, info in pool:
            wanted = _CP_REFERENCES.get(info.tag)
            if wanted is None:
                continue
            for target, tag in zip(info.value, wanted):
                entry = pool.maybe_entry(target)
                if entry is None or entry.tag is not tag:
                    raise ClassFormatError(
                        f"Invalid constant pool index {target} in class "
                        f"file ({info.tag.name} entry {index} needs "
                        f"{tag.name})")

    def _read_cp_entry(self, cursor: _ByteCursor, tag: CpTag) -> CpInfo:
        if tag is CpTag.UTF8:
            length = cursor.u2()
            raw = cursor.raw(length)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ClassFormatError(f"Malformed UTF-8 constant: {exc}") from exc
            return CpInfo(tag, text)
        if tag is CpTag.INTEGER:
            return CpInfo(tag, cursor.s4())
        if tag is CpTag.FLOAT:
            return CpInfo(tag, cursor.f4())
        if tag is CpTag.LONG:
            return CpInfo(tag, cursor.s8())
        if tag is CpTag.DOUBLE:
            return CpInfo(tag, cursor.f8())
        if tag in (CpTag.CLASS, CpTag.STRING, CpTag.METHOD_TYPE):
            return CpInfo(tag, (cursor.u2(),))
        if tag in (CpTag.FIELDREF, CpTag.METHODREF, CpTag.INTERFACE_METHODREF,
                   CpTag.NAME_AND_TYPE, CpTag.INVOKE_DYNAMIC):
            return CpInfo(tag, (cursor.u2(), cursor.u2()))
        if tag is CpTag.METHOD_HANDLE:
            return CpInfo(tag, (cursor.u1(), cursor.u2()))
        raise ClassFormatError(f"Unhandled constant tag {tag}")  # pragma: no cover

    def _read_member_name(self, pool: ConstantPool, index: int,
                          what: str) -> None:
        try:
            info = pool.entry(index)
        except ConstantPoolError as exc:
            raise ClassFormatError(f"Invalid {what} name index: {exc}") from exc
        if info.tag is not CpTag.UTF8:
            raise ClassFormatError(
                f"{what} name index {index} is a {info.tag.name}, not Utf8")

    def _read_field(self, cursor: _ByteCursor, pool: ConstantPool) -> FieldInfo:
        flags = AccessFlags(cursor.u2())
        name_index = cursor.u2()
        descriptor_index = cursor.u2()
        self._read_member_name(pool, name_index, "field")
        self._read_member_name(pool, descriptor_index, "field descriptor")
        attributes = self._read_attributes(cursor, pool)
        return FieldInfo(flags, name_index, descriptor_index, attributes)

    def _read_method(self, cursor: _ByteCursor, pool: ConstantPool) -> MethodInfo:
        flags = AccessFlags(cursor.u2())
        name_index = cursor.u2()
        descriptor_index = cursor.u2()
        self._read_member_name(pool, name_index, "method")
        self._read_member_name(pool, descriptor_index, "method descriptor")
        attributes = self._read_attributes(cursor, pool)
        return MethodInfo(flags, name_index, descriptor_index, attributes)

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
        length = cursor.u4()
        body = cursor.raw(length)
        try:
            return self._decode_attribute(name, body, pool)
        except ClassFormatError:
            raise
        except Exception as exc:
            raise ClassFormatError(
                f"Malformed {name} attribute: {exc}") from exc

    def _decode_attribute(self, name: str, body: bytes,
                          pool: ConstantPool) -> Attribute:
        known = ("Code", "Exceptions", "ConstantValue", "SourceFile")
        probe(f"reader.attr.{name if name in known else 'other'}")
        inner = _ByteCursor(body)
        if name == "Code":
            max_stack = inner.u2()
            max_locals = inner.u2()
            code_length = inner.u4()
            if code_length == 0:
                raise ClassFormatError("Code attribute with zero-length code")
            code = inner.raw(code_length)
            table = [
                ExceptionHandler(inner.u2(), inner.u2(), inner.u2(), inner.u2())
                for _ in range(inner.u2())
            ]
            nested = self._read_attributes(inner, pool)
            return CodeAttribute(max_stack, max_locals, code, table, nested)
        if name == "Exceptions":
            indices = [inner.u2() for _ in range(inner.u2())]
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
