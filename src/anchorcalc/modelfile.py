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

Fields are x1..xn, the independent variable is t.  Printing a parsed file
with format_model and parsing it back is the identity on canonical files.

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
names the line it stands on.
"""

from __future__ import annotations

import re

from . import expr as ex
from . import ode
from .parser import ParseError, VarContext, parse_expr

KNOWN_SECTIONS = ("ode", "anchor", "characteristic", "symmetry", "hamiltonian")


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
        if section not in KNOWN_SECTIONS:
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

    def items(header, key):
        try:
            return _split_list(sections[header].get(key, ""), key)
        except ModelFileError as exc:
            raise error(header, key, str(exc)) from None

    ode_sec = sections["ode"]
    _check_keys(sections, places, "ode", {"n", "v"})
    try:
        n = int(ode_sec.get("n", ""))
    except ValueError:
        raise error("ode", "n", "n must be an integer") from None
    if n < 1:
        raise error("ode", "n", "n must be positive")
    v_items = items("ode", "v")
    if len(v_items) != n:  # before the n names of the context are built
        raise error("ode", "v", f"v has {len(v_items)} components, expected {n}")
    ctx = _context(n)

    def parse(header, key, item=None, offset=0):
        """The expression of a value, or of the list item at offset in it;
        a ParseError is reported at its line and column in the file."""
        item = sections[header].get(key, "") if item is None else item
        if not item.strip():
            raise error(header, key, f"{key}: empty expression", offset)
        try:
            return parse_expr(item, ctx)
        except ParseError as exc:
            raise error(header, key, f"{key}: {exc.message}", offset + exc.position, True) from exc

    v = [parse("ode", "v", item, offset) for offset, item in v_items]

    alpha = None
    if "anchor" in sections:
        upper, keys = {}, {}
        for key in sections["anchor"]:
            m = _ALPHA_KEY.match(key)
            if not m:
                raise error(
                    "anchor", key, f"keys must look like alpha_12 or alpha_1_2, got {key!r}"
                )
            groups = [g for g in m.groups() if g is not None]
            i, j = int(groups[0]), int(groups[1])
            if not (1 <= i < j <= n):
                raise error("anchor", key, f"{key}: need 1 <= i < j <= n")
            if (i, j) in keys:
                raise error("anchor", key, f"{keys[i, j]} and {key} both set alpha_{i}_{j}")
            keys[i, j] = key
            upper[(i - 1, j - 1)] = parse("anchor", key)
        alpha = ode.Bivector(n, upper)

    f = None
    if "characteristic" in sections:
        _check_keys(sections, places, "characteristic", {"f"})
        f = parse("characteristic", "f")

    w = None
    if "symmetry" in sections:
        _check_keys(sections, places, "symmetry", {"w"})
        w_items = items("symmetry", "w")
        if len(w_items) != n:
            raise error("symmetry", "w", f"w has {len(w_items)} components, expected {n}")
        w = [parse("symmetry", "w", item, offset) for offset, item in w_items]

    hamiltonian = None
    if "hamiltonian" in sections:
        _check_keys(sections, places, "hamiltonian", {"H"})
        hamiltonian = parse("hamiltonian", "H")

    return ModelFile(n, v, alpha=alpha, f=f, w=w, hamiltonian=hamiltonian, name=name)


def _line(places, header, key=None) -> str:
    """` (line N)`: the file line of a section's header, or of a key."""
    return f" (line {places[header, key][0][0]})"


def _check_keys(sections, places, header, allowed):
    """Refuse the keys of a section outside allowed, at the line of the
    first of them in the file."""
    extra = [key for key in sections[header] if key not in allowed]
    if extra:
        where = _line(places, header, extra[0])
        raise ModelFileError(f"unknown keys in [{header}]: {sorted(extra)}{where}")


def format_model(model: ModelFile) -> str:
    """Canonical rendering; parse(format(m)) reproduces m."""
    out = ["[ode]", f"n = {model.n}"]
    vs = ", ".join(ex.to_text(c) for c in model.system.v)
    out.append(f"v = [{vs}]")
    if model.alpha is not None and not model.alpha.is_zero():
        out.append("")
        out.append("[anchor]")
        for (i, j), value in sorted(model.alpha.upper.items()):
            out.append(f"alpha_{i + 1}_{j + 1} = {ex.to_text(value)}")
    if model.f is not None:
        out.append("")
        out.append("[characteristic]")
        out.append(f"f = {ex.to_text(model.f)}")
    if model.w is not None:
        out.append("")
        out.append("[symmetry]")
        ws = ", ".join(ex.to_text(c) for c in model.w)
        out.append(f"w = [{ws}]")
    if model.hamiltonian is not None:
        out.append("")
        out.append("[hamiltonian]")
        out.append(f"H = {ex.to_text(model.hamiltonian)}")
    return "\n".join(out) + "\n"
