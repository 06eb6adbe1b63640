"""Model definition files for ODE systems.

Format (INI-style, expression grammar from the kernel):

    [ode]
    n = 2
    v = [-x2, x1]

    [anchor]
    alpha_12 = 1

    [characteristic]
    f = (x1^2 + x2^2)/2

    [symmetry]
    w = [x2, -x1]

    [hamiltonian]
    H = (x1^2 + x2^2)/2

Fields are x1..xn, the independent variable is t.  SECTIONS is the one
list of sections: the unknown-section and unknown-key checks, the parser
and format_model read it, as does the skip rule of the check command.
Printing a parsed file with format_model and parsing it back is the
identity on canonical files.

The layout is read in one pass (_read_sections), and it accepts this INI
subset: `[section]` header lines; `key = value` or `key: value` lines, cut
at the first `=` or `:`; comment lines whose first non-blank character is
`#` or `;`; blank lines; and continuation lines, indented deeper than the
key line they extend, joined to its value with a newline.  There are no
inline comments: a `#` after a value is part of it.  A section or a key
named twice in a section, and any other line, is a ModelFileError with its
line number.  On its accepted files the reader gives the same sections,
keys and values as configparser.ConfigParser(interpolation=None,
strict=True) with case-sensitive keys, and it rejects every file that
parser rejects.  It diverges on purpose in two places:
- `[DEFAULT]` is a section like any other, and so an unknown one;
  configparser copies its keys into every section;
- a line that starts with `[` is a header and must end with `]`;
  configparser drops the text after the last `]` (`[ode] n = 2` is the
  header `ode`) and reads `[x = 1` as the key `[x`.

The reader records the file line and start column of every line it joins
into a value, so a position in a value is one index into that list.  An
expression that does not parse is a ModelFileError with the line and
column in the file where the parser stopped; every other error in a value
names the line it stands on, a value the kernel refuses (log(-2), a
division by a sum) included.  A resource-limit refusal is not an error in
the file and keeps its own message.
"""

from __future__ import annotations

import re

from . import expr as ex
from . import ode
from .parser import ParseError, VarContext, parse_expr

# The one list of sections: name -> (key, whether its value is a list of
# n expressions or one expression, ModelFile attribute).  [ode] also holds
# n; [anchor] has no one key but the alpha_ij entries of its bivector.
SECTIONS = {
    "ode": ("v", True, "v"),
    "anchor": (None, False, "alpha"),
    "characteristic": ("f", False, "f"),
    "symmetry": ("w", True, "w"),
    "hamiltonian": ("H", False, "hamiltonian"),
}


class ModelFileError(ex.ExprError):
    pass


class ModelFile:
    def __init__(self, n, v, alpha=None, f=None, w=None, hamiltonian=None, name="model"):
        self.n = n
        self.system = ode.OdeSystem(v)
        self.alpha = alpha
        self.f = f
        self.w = w
        self.hamiltonian = hamiltonian
        self.name = name

    @property
    def v(self):
        return self.system.v

    def context(self) -> VarContext:
        return _context(self.n)


def _context(n: int) -> VarContext:
    return VarContext(indep=(ode.TIME,), fields=tuple(ode.field_name(i) for i in range(n)))


def _split_list(text: str, where: str):
    """The items of a bracketed list, cut at the commas outside
    parentheses: (offset of the item in text, the stripped item) pairs."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ModelFileError(f"{where}: expected a bracketed list, got {stripped!r}")
    inner = stripped[1:-1]
    if not inner:
        return []
    offset = len(text) - len(text.lstrip()) + 1  # of the part in text
    items = []
    depth = 0
    for part in inner.split(","):
        if depth:  # the comma stands inside parentheses: the item goes on
            start, item = items[-1]
            items[-1] = start, item + "," + part
        else:
            items.append((offset, part))
        depth += part.count("(") - part.count(")")
        offset += len(part) + 1
    return [(start + len(item) - len(item.lstrip()), item.strip()) for start, item in items]


_ALPHA_KEY = re.compile(r"alpha_([0-9]+)_([0-9]+)$|alpha_([0-9])([0-9])$")


def parse_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_model_text(text, name=str(path))


def _read_sections(text: str, name: str):
    """({section: {key: value}}, places) of the INI subset in the module
    docstring, in file order, read in one pass over the lines.  places maps
    each (section, key) to the (file line, index in it) where each line of
    its value starts, and (section, None) to its header's."""
    sections = {}
    places = {}
    section = key = None  # the open section's keys; the key a continuation extends
    indent = 0  # indentation of the last header or key line
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and key is not None:
                section[key].append("")  # kept only inside a value
                place.append((number, len(line)))
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            section[key].append(stripped)
            place.append((number, depth))
            continue
        indent, where = depth, f"{name}, line {number}"
        if stripped[0] == "[":
            header = stripped[1:-1]
            if not header or stripped[-1] != "]":
                raise ModelFileError(f"{where}: expected a [section] header, got {stripped!r}")
            if header in sections:
                raise ModelFileError(f"{where}: section [{header}] is repeated")
            section = sections[header] = {}
            places[header, None] = [(number, depth)]
            key = None
            continue
        cut = min((i for i in (stripped.find("="), stripped.find(":")) if i >= 0), default=0)
        key = stripped[:cut].rstrip()
        if section is None or not key:
            what = "a [section] header" if section is None else "key = value"
            raise ModelFileError(f"{where}: expected {what}, got {stripped!r}")
        if key in section:
            raise ModelFileError(f"{where}: key {key!r} is repeated in its section")
        rest = stripped[cut + 1 :]
        section[key] = [rest.strip()]
        place = places[header, key] = [(number, depth + len(stripped) - len(rest.lstrip()))]
    values = {
        header: {k: "\n".join(lines).rstrip() for k, lines in keys.items()}
        for header, keys in sections.items()
    }
    return values, places


def parse_model_text(text: str, name: str = "model") -> ModelFile:
    sections, places = _read_sections(text, name)
    for section in sections:
        if section not in SECTIONS:
            raise ModelFileError(f"unknown section [{section}]{_line(places, section)}")
    if "ode" not in sections:
        raise ModelFileError("missing [ode] section")

    def error(header, key, message, pos=0, column=False):
        """The ModelFileError `[header] message` about the value of key, at
        the file line of its character pos, and at its column if asked; a
        missing key has no line."""
        if key in sections[header]:
            value = sections[header][key]
            line, start = places[header, key][value.count("\n", 0, pos)]
            at = start + pos - value.rfind("\n", 0, pos)
            message += f" (line {line}, column {at})" if column else f" (line {line})"
        return ModelFileError(f"[{header}] {message}")

    _check_keys(sections, places, "ode")
    try:
        n = int(sections["ode"].get("n", ""))
    except ValueError:
        raise error("ode", "n", "n must be an integer") from None
    if n < 1:
        raise error("ode", "n", "n must be positive")
    ctx = None

    def parse(header, key, item=None, offset=0):
        """The expression of a value, or of the list item at offset in it;
        a ParseError is reported at its line and column in the file, and a
        value the kernel refuses, such as log(-2), at the item's line."""
        nonlocal ctx
        item = sections[header].get(key, "") if item is None else item
        if not item.strip():
            raise error(header, key, f"{key}: empty expression", offset)
        if ctx is None:  # built on the first parse, after v's length is checked
            ctx = _context(n)
        try:
            return parse_expr(item, ctx)
        except ParseError as exc:
            raise error(header, key, f"{key}: {exc.message}", offset + exc.position, True) from exc
        except ex.UnsupportedInputError as exc:
            raise error(header, key, f"{key}: {exc}", offset) from exc

    def expressions(header, key):
        """The n expressions of a list value, its length checked before any
        of them is parsed."""
        try:
            listed = _split_list(sections[header].get(key, ""), key)
        except ModelFileError as exc:
            raise error(header, key, str(exc)) from None
        if len(listed) != n:
            raise error(header, key, f"{key} has {len(listed)} components, expected {n}")
        return [parse(header, key, item, offset) for offset, item in listed]

    values = {}
    for header, (key, is_list, attr) in SECTIONS.items():
        if header not in sections:
            continue
        if key is not None:
            _check_keys(sections, places, header)
            values[attr] = expressions(header, key) if is_list else parse(header, key)
            continue
        upper, keys = {}, {}
        for key in sections[header]:
            m = _ALPHA_KEY.match(key)
            if not m:
                raise error(
                    header, key, f"keys must look like alpha_12 or alpha_1_2, got {key!r}"
                )
            groups = [g for g in m.groups() if g is not None]
            i, j = int(groups[0]), int(groups[1])
            if not (1 <= i < j <= n):
                raise error(header, key, f"{key}: need 1 <= i < j <= n")
            if (i, j) in keys:
                raise error(header, key, f"{keys[i, j]} and {key} both set alpha_{i}_{j}")
            keys[i, j] = key
            upper[(i - 1, j - 1)] = parse(header, key)
        values[attr] = ode.Bivector(n, upper)
    return ModelFile(n, name=name, **values)


def _line(places, header, key=None) -> str:
    """` (line N)`: the file line of a section's header, or of a key."""
    return f" (line {places[header, key][0][0]})"


def _check_keys(sections, places, header):
    """Refuse the keys of a section other than its key in SECTIONS, and n
    in [ode], at the line of the first of them in the file."""
    allowed = (SECTIONS[header][0], "n" if header == "ode" else None)
    extra = [key for key in sections[header] if key not in allowed]
    if extra:
        where = _line(places, header, extra[0])
        raise ModelFileError(f"unknown keys in [{header}]: {sorted(extra)}{where}")


def format_model(model: ModelFile) -> str:
    """Canonical rendering; parse(format(m)) reproduces m."""
    blocks = []
    for header, (key, is_list, attr) in SECTIONS.items():
        value = getattr(model, attr)
        if value is None or key is None and value.is_zero():
            continue
        lines = [f"[{header}]"] + ([f"n = {model.n}"] if header == "ode" else [])
        if key is None:
            for (i, j), entry in sorted(value.upper.items()):
                lines.append(f"alpha_{i + 1}_{j + 1} = {ex.to_text(entry)}")
        elif is_list:
            lines.append(f"{key} = [{', '.join(map(ex.to_text, value))}]")
        else:
            lines.append(f"{key} = {ex.to_text(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
